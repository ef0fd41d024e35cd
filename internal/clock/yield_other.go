//go:build !linux

package clock

func osYield() {} // the pump yields its OS thread on Linux alone
