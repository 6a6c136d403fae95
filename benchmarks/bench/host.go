package bench

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far. Client, gateway and
// replica share the benchmark process, so a delta over a segment is the whole
// stack's CPU cost for that segment's operations.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounters reads the cumulative count and bytes of heap allocations.
func heapCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func mallocs() uint64 {
	n, _ := heapCounters()
	return n
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// stealTicks reads the aggregate steal column of /proc/stat: time, in clock
// ticks, that this VM's vCPUs had work to run but the hypervisor ran another
// guest instead.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// measure runs fn as one segment: the allocation counter is read outside the
// timed region (ReadMemStats stops the world), CPU and wall inside it.
func measure(fn func() tally) segment {
	m0, b0 := heapCounters()
	s0 := stealTicks()
	c0 := cpuTime()
	t0 := time.Now()
	t := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	m1, b1 := heapCounters()
	return segment{tally: t, wall: wall, cpu: cpu, mallocs: m1 - m0, allocBytes: b1 - b0, steal: stealTicks() - s0}
}

var spinSink uint64

var spinArray = make([]float64, 1<<20)

// spin times a fixed pure-Go computation: one goroutine per P, each mixing
// xorshift arithmetic with passes over an 8 MB array. Run between segments,
// it records how fast the host was at that moment, so an outlier run can be
// told from an outlier program. It gates nothing.
func spin() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < Procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			acc := 0.0
			for pass := 0; pass < 12; pass++ {
				for i := range spinArray {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					acc += spinArray[i] + float64(x&3)
				}
			}
			atomic.AddUint64(&spinSink, x+uint64(acc))
		}()
	}
	wg.Wait()
	return time.Since(t0)
}
