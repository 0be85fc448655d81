package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"htap/internal/obs"
)

// cpuTime is the process's user+system CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// usage is a before/after probe of the process-wide costs of a phase.
type usage struct {
	cpu     time.Duration
	mallocs uint64
}

func usageNow() usage { return usage{cpu: cpuTime(), mallocs: mallocs()} }

func (u usage) since() usage {
	n := usageNow()
	return usage{cpu: n.cpu - u.cpu, mallocs: n.mallocs - u.mallocs}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
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

// counters is a snapshot of obs.Default: every htap_* sample summed over
// its label sets under the bare series name, and each labelled sample also
// under name{labels}. Summary quantile samples are skipped; _sum and
// _count are kept.
type counters map[string]float64

func readCounters() counters {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return counters{}
	}
	out := counters{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "quantile=") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			out[series] += v
		}
		out[name] += v
	}
	return out
}

// delta returns after[k] - before[k] for every key of after.
func (before counters) delta(after counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
