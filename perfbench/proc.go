package main

import (
	"runtime"
	"syscall"
	"time"
)

// heapAfterGC collects twice, so that objects freed by finalizers are
// gone too, and returns the live heap in MB.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procSample is the process-wide runtime state at one instant.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	gcPause time.Duration // cumulative stop-the-world GC pause
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail on Linux
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// procDelta is the runtime cost of the span between two samples.
type procDelta struct {
	cpuMsPerOp float64
	cpuUtil    float64 // CPU seconds per wall second (2 = both cores busy)
	gcPauseMs  float64
}

func procBetween(a, b procSample, ops int) procDelta {
	var d procDelta
	cpu := b.cpu - a.cpu
	if ops > 0 {
		d.cpuMsPerOp = float64(cpu) / float64(time.Millisecond) / float64(ops)
	}
	if wall := b.wall.Sub(a.wall); wall > 0 {
		d.cpuUtil = float64(cpu) / float64(wall)
	}
	d.gcPauseMs = float64(b.gcPause-a.gcPause) / float64(time.Millisecond)
	return d
}
