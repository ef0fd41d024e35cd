//go:build !race

package gateway_test

const raceEnabled = false
