//go:build unix

package clock

import (
	"syscall"
	"testing"
	"time"
)

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The pump spins only while a waiter is pending: a clock that has been used
// and then left alone costs nothing.
func TestScaledIdleClockBurnsNoCPU(t *testing.T) {
	c := NewScaled(20000)
	for i := 0; i < 100; i++ {
		c.Sleep(250 * time.Millisecond)
	}
	waitPumpGone(t, c)
	before := processCPU(t)
	time.Sleep(50 * time.Millisecond)
	if used := processCPU(t) - before; used >= 5*time.Millisecond {
		t.Errorf("idle clock used %v of process CPU in 50ms, want < 5ms", used)
	}
}
