//go:build unix

package clock

import (
	"bytes"
	"os"
	"os/exec"
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

// idleChildEnv marks the child process TestScaledIdleClockBurnsNoCPU starts
// to take its measurement.
const idleChildEnv = "FIRST_CLOCK_IDLE_CHILD"

// The pump spins only while a waiter is pending: a clock that has been used
// and then left alone costs nothing. The bound reads the whole process's
// CPU, so the measurement runs in a child process of the test binary that
// runs this test alone: pumps and goroutines that earlier tests of the same
// process left behind (under -count=20, say) cannot count against it.
func TestScaledIdleClockBurnsNoCPU(t *testing.T) {
	if os.Getenv(idleChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestScaledIdleClockBurnsNoCPU$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), idleChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestScaledIdleClockBurnsNoCPU")) {
			t.Fatalf("the measuring child: %v\n%s", err, out)
		}
		return
	}
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
