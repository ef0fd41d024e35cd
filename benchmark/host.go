package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// yardstick is a frozen reference loop — splitmix64 hashing feeding a pointer
// chase over a 4 MB table — timed before and after every workload. It is
// reported (host.yardstick_ns) and never used to normalise: dividing by it
// made medians less repeatable, not more. Two readings that disagree say the
// host changed speed under the run. No PR may touch this function: its value
// is that it does not move with the code under test.
func yardstick() float64 {
	const (
		entries = 1 << 19 // × 8 bytes = 4 MB, past L2
		steps   = 1 << 19
	)
	if yardstickTable == nil {
		yardstickTable = make([]uint64, entries)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range yardstickTable {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			yardstickTable[i] = z ^ (z >> 31)
		}
	}
	table := yardstickTable
	best := 0.0
	for round := 0; round < 3; round++ {
		at := uint64(round)
		start := time.Now()
		for i := 0; i < steps; i++ {
			z := table[at&(entries-1)] + uint64(i)
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			at = z ^ (z >> 31)
		}
		ns := float64(time.Since(start).Nanoseconds()) / steps
		yardstickSink = at
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// yardstickTable is built once, so both readings of a run chase the same
// pages; yardstickSink keeps the chase's result live.
var (
	yardstickTable []uint64
	yardstickSink  uint64
)

// processCPU is user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseMeter brackets a timed phase: wall, mallocs and process CPU.
type phaseMeter struct {
	start   time.Time
	mallocs uint64
	cpu     time.Duration
}

func startPhase() phaseMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseMeter{start: time.Now(), mallocs: ms.Mallocs, cpu: processCPU()}
}

type phaseCost struct {
	wall    time.Duration
	mallocs uint64
	cpu     time.Duration
	heapMB  float64
}

func (p phaseMeter) stop() phaseCost {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// HeapSys only grows, so after the phase it is the heap's high-water mark.
	return phaseCost{wall: wall, mallocs: ms.Mallocs - p.mallocs, cpu: cpu, heapMB: float64(ms.HeapSys) / (1 << 20)}
}

// rank is the index of the q-quantile among n sorted values (nearest rank on
// the n-1 gaps).
func rank(n int, q float64) int { return int(q*float64(n-1) + 0.5) }

// quantile reads the q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// iqrPct is the distance between the quartiles as a percentage of the median.
func iqrPct(v []float64) float64 {
	s := sortedCopy(v)
	if m := quantile(s, 0.5); m > 0 {
		return 100 * (quantile(s, 0.75) - quantile(s, 0.25)) / m
	}
	return 0
}
