//go:build !race

package openaiapi

const raceEnabled = false
