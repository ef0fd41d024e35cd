package clock

import "syscall"

// osYield gives the pump's OS thread up with sched_yield(2), so that a thread
// the kernel queued on its CPU runs now rather than at the next tick.
// Syscall, not RawSyscall: if the yield gives the CPU away for long, sysmon
// can retake the processor.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
