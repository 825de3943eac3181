package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// procCounters is what the process itself reports about its cost.
type procCounters struct {
	cpu                time.Duration // user + system CPU time
	maxRSSKB           int64
	mallocs, allocByte uint64 // only when read with memory stats
	gcCPU, totalCPU    float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readProc samples the process counters. withMem also reads the heap
// statistics, which briefly stops the world; only phase edges do that.
func readProc(withMem bool) procCounters {
	var p procCounters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.maxRSSKB = ru.Maxrss
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.mallocs, p.allocByte = ms.Mallocs, ms.TotalAlloc
		metrics.Read(cpuMetrics)
		p.gcCPU = cpuMetrics[0].Value.Float64()
		p.totalCPU = cpuMetrics[1].Value.Float64()
	}
	return p
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
