package main

import (
	"fmt"
	"time"

	"repro/rtether/wire"
)

// Sample classes. Latency classes are the caller-visible operations;
// the rest time whole blocks of work whose size is in sample.n.
const (
	clsEstablish = "establish"
	clsRelease   = "release"
	clsRead      = "read"
	clsBulk      = "bulk"       // one batch establishment; n = channels admitted
	clsFailover  = "failover"   // one link-failure recovery pass; n = channels re-admitted
	clsRunStar   = "run.star"   // one simulated block on netsim; n = slots
	clsRunFabric = "run.fabric" // one simulated block on fabricsim; n = slots
)

// sample is one timed operation: its class, its latency, when it ended
// (nanoseconds since its segment began) and how many units of work it
// covered (1 for a single operation).
type sample struct {
	class string
	lat   int64
	end   int64
	n     int64
}

// segment is one contiguous timed region of a pass — nothing but the
// sampled operations ran between its first and its last sample — so
// dividing it into equal time windows gives comparable slices.
type segment struct {
	name    string
	samples []sample
	wall    time.Duration
}

// add appends one sample ending now.
func (s *segment) add(epoch time.Time, class string, lat time.Duration, n int64) {
	s.samples = append(s.samples, sample{class: class, lat: lat.Nanoseconds(), end: time.Since(epoch).Nanoseconds(), n: n})
}

// measured is what one pass over a workload observed, before it is
// folded into named metrics.
type measured struct {
	segments  []*segment
	attempted int64
	failed    int64
	failures  []string // first few failure descriptions, for the operator

	establishes int64
	accepted    int64
	delivered   int64     // frames delivered on admitted channels (data-plane passes)
	misses      int64     // deadline misses among them
	setups      []float64 // seconds, one per set-up
	peakRSSMB   float64
	counts      map[string]int64 // exact, seed-determined counts (repeatability check)

	// Wire passes only.
	phaseStart time.Time // when the measured phase began
	daemonCPU  float64   // daemon CPU seconds over the measured phase
	loadgenCPU float64   // benchmark-process CPU seconds over the measured phase
	mallocs    uint64    // benchmark-process heap allocations over the measured phase
	promBefore map[string]float64
	promAfter  map[string]float64
	flights    []wire.SpanInfo
	recorders  []*recorder
}

func newMeasured() *measured { return &measured{counts: map[string]int64{}} }

// fail records one failed operation.
func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// segment returns the named segment, creating it on first use.
func (m *measured) segment(name string) *segment {
	for _, s := range m.segments {
		if s.name == name {
			return s
		}
	}
	s := &segment{name: name}
	m.segments = append(m.segments, s)
	return s
}

// wall sums the segments' durations: the measured phase without the
// untimed work between segments.
func (m *measured) wall() time.Duration {
	var d time.Duration
	for _, s := range m.segments {
		d += s.wall
	}
	return d
}

// windows is how many equal time slices a segment is cut into for the
// robust statistics below.
const windows = 10

// windowOf returns the time slice a sample ended in.
func (s *segment) windowOf(end int64, k int) int {
	w := int(end * int64(k) / (s.wall.Nanoseconds() + 1))
	if w >= k {
		w = k - 1
	}
	return w
}

// percentileOf is the median over the segment's time windows of the
// class's p-th latency percentile inside each window. A burst of
// interference (another tenant of the host, a collection cycle) shifts
// the whole latency distribution while it lasts; the median across
// windows discards the windows it hit instead of blending them in. The
// window count shrinks until every window holds at least minPerWindow
// samples, down to one window — the plain percentile of the segment.
// It also returns the sample count.
func (s *segment) percentileOf(class string, p float64, minPerWindow int) (float64, int) {
	var all []int64
	for _, sm := range s.samples {
		if sm.class == class {
			all = append(all, sm.lat)
		}
	}
	if len(all) == 0 {
		return 0, 0
	}
	k := windows
	if max := len(all) / minPerWindow; max < k {
		k = max
	}
	if k <= 1 {
		return float64(percentile(sortedCopy(all), p)), len(all)
	}
	per := make([][]int64, k)
	for _, sm := range s.samples {
		if sm.class == class {
			w := s.windowOf(sm.end, k)
			per[w] = append(per[w], sm.lat)
		}
	}
	var stats []float64
	for _, w := range per {
		if len(w) >= minPerWindow/2 {
			stats = append(stats, float64(percentile(sortedCopy(w), p)))
		}
	}
	return medianFloat(stats), len(all)
}

// opsOf counts a sample as caller-visible operations: every single
// establish, release and read (a read sample may time a block of them);
// a simulated block, a batch or a recovery pass is one operation.
func opsOf(sm sample) float64 {
	switch sm.class {
	case clsEstablish, clsRelease, clsRead:
		return float64(sm.n)
	}
	return 1
}

// rateOf is the median over the segment's time windows of the
// operations completed per second, and the segment's operation total.
func (s *segment) rateOf() (rate, ops float64) {
	k := windows
	if len(s.samples) < 4*k {
		k = 1
	}
	work := make([]float64, k)
	for _, sm := range s.samples {
		work[s.windowOf(sm.end, k)] += opsOf(sm)
		ops += opsOf(sm)
	}
	dur := s.wall.Seconds() / float64(k)
	for i := range work {
		work[i] /= dur
	}
	return medianFloat(work), ops
}
