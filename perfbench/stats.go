package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func isBad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// quantile returns the q-quantile of xs with linear interpolation
// between order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits samples taken at times at (seconds, over a
// span) into n equal windows and returns the median of the windows'
// q-quantiles. Windows with fewer than 20 samples are skipped.
func windowedQuantile(xs, at []float64, span float64, n int, q float64) float64 {
	windows := make([][]float64, n)
	for i, x := range xs {
		w := int(at[i] / span * float64(n))
		if w >= n {
			w = n - 1
		}
		windows[w] = append(windows[w], x)
	}
	var qs []float64
	for _, w := range windows {
		if len(w) >= 20 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// tailQuantile is the highest quantile, capped at want, that keeps at
// least ten samples above it; with fewer than 20 samples it is the
// median.
func tailQuantile(n int, want float64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(want, 1-10/float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histogram is a merged copy of one obs histogram family.
type histogram struct {
	upper []float64 // finite upper bounds
	count []uint64  // per-bucket (not cumulative) counts; last is +Inf
	total uint64
}

// readHistogram merges every child of a histogram family in reg.
func readHistogram(reg *obs.Registry, name string) histogram {
	var h histogram
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != name {
			continue
		}
		for _, m := range fam.Metrics {
			if h.count == nil {
				for _, b := range m.Buckets {
					if !math.IsInf(b.UpperBound, 1) {
						h.upper = append(h.upper, b.UpperBound)
					}
				}
				h.count = make([]uint64, len(h.upper)+1)
			}
			var prev uint64
			for i, b := range m.Buckets {
				// Snapshot buckets are cumulative, Prometheus style.
				if i < len(h.count) {
					h.count[i] += b.Count - prev
				}
				prev = b.Count
			}
			h.total += m.Count
		}
	}
	return h
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation.
func (h histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var seen float64
	for i, c := range h.count {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(h.upper) {
				return h.upper[len(h.upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			return lo + (h.upper[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.upper[len(h.upper)-1]
}

// minus is h without the observations an earlier read of the same
// histogram already held.
func (h histogram) minus(earlier histogram) histogram {
	out := histogram{upper: h.upper, count: append([]uint64(nil), h.count...), total: h.total - earlier.total}
	for i := range earlier.count {
		if i < len(out.count) {
			out.count[i] -= earlier.count[i]
		}
	}
	return out
}

// countAbove is the number of observations in buckets whose lower bound
// is at least v.
func (h histogram) countAbove(v float64) uint64 {
	var n uint64
	for i, c := range h.count {
		lo := 0.0
		if i > 0 {
			lo = h.upper[i-1]
		}
		if lo >= v {
			n += c
		}
	}
	return n
}

// counterSum adds every child of a counter family in reg.
func counterSum(reg *obs.Registry, name string) float64 {
	var v int64
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == name {
			for _, m := range fam.Metrics {
				v += m.Value
			}
		}
	}
	return float64(v)
}

// cpuTime is the CPU time of the process (who = RUSAGE_SELF) or of the
// calling thread (who = rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// gcCPU is the runtime's estimate of the CPU seconds spent in GC.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// usage is a snapshot of process-wide resource counters, differenced
// across a measured phase.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	gc         float64
	allocBytes uint64
}

func readUsage() usage {
	u := usage{wall: time.Now(), cpu: cpuTime(syscall.RUSAGE_SELF), gc: gcCPU()}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[0].Value.Uint64()
	}
	return u
}

// since differences two snapshots.
func (u usage) since(start usage) (wall, cpu time.Duration, gcFrac float64, allocBytes float64) {
	return u.wall.Sub(start.wall), u.cpu - start.cpu,
		ratio(u.gc-start.gc, (u.cpu - start.cpu).Seconds()),
		float64(u.allocBytes - start.allocBytes)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssSampler tracks the largest resident set size seen by sampling
// /proc/self/statm every 100 ms. Sampling, unlike the kernel's VmHWM,
// ignores sub-100 ms peaks that only say where a GC cycle happened to
// fall, which would make the metric swing from run to run.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  float64 // MB; written by the sampler, read after done
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = math.Max(s.peak, residentMB())
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	return s.peak
}

// residentMB reads the current resident set size.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
