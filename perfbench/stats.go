package main

import (
	"sort"
	"syscall"
	"time"
)

// windows is how many consecutive windows a measured phase is split into.
// Figures taken per window and reported as the median over windows ride
// out bursts of load from outside the benchmark.
const windows = 10

// windowed splits the phase's spans of the given kinds, in completion
// order, into equal-count windows and returns each window's spans.
func (p *phase) windowed(kinds ...opKind) [][]clientSpan {
	var sel []clientSpan
	for _, s := range p.spans {
		for _, k := range kinds {
			if s.kind == k {
				sel = append(sel, s)
			}
		}
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].done < sel[j].done })
	n := windows
	if len(sel) < n {
		n = len(sel)
	}
	out := make([][]clientSpan, n)
	for k := range out {
		out[k] = sel[k*len(sel)/n : (k+1)*len(sel)/n]
	}
	return out
}

// windowP returns the median over windows of each window's p-th latency
// percentile, in microseconds.
func (p *phase) windowP(pct float64, kinds ...opKind) float64 {
	var per []float64
	for _, w := range p.windowed(kinds...) {
		lat := make([]float64, len(w))
		for i, s := range w {
			lat[i] = float64(s.lat) / float64(time.Microsecond)
		}
		per = append(per, percentile(lat, pct))
	}
	return median(per)
}

// windowRate returns the median over windows of operations completed per
// second; a BATCH sub-request counts as one operation.
func (p *phase) windowRate() float64 {
	var per []float64
	prev := time.Duration(0)
	for _, w := range p.windowed(opPut, opGet, opBatch) {
		steps := 0
		for _, s := range w {
			steps += s.steps
		}
		end := w[len(w)-1].done
		if end > prev {
			per = append(per, float64(steps)/(end-prev).Seconds())
		}
		prev = end
	}
	return median(per)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the CPU time the process has used so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
