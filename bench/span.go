package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer: its name, the
// operation it belongs to, the span that caused it (-1 for a root) and
// its interval in nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory for one goroutine; the traced pass
// gives every caller its own and merges them when the run ends. A nil
// recorder records nothing, which is how the untraced pass runs the
// same code.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, op int64, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(r.epoch).Nanoseconds()})
	return int32(len(r.spans) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = time.Since(r.epoch).Nanoseconds()
}

// timed runs one call into a layer inside an operation span: a root
// span "op.<class>" with the call's own span beneath it. It returns the
// root, which the caller ends once it has checked the call's result, and
// the call's duration. On a nil recorder it only times the call.
func (r *recorder) timed(class, call string, opID int64, fn func()) (int32, time.Duration) {
	root := r.begin("op."+class, opID, -1)
	sp := r.begin(call, opID, root)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(sp)
	return root, d
}

// layerTime is the aggregate of one span name: how often it ran, its
// total duration and its self time — duration minus the part of the
// interval its child spans cover.
type layerTime struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"totalNs"`
	SelfNs  int64  `json:"selfNs"`
}

// selfTimes aggregates one recorder's spans by name. Children of one
// span run sequentially on the recording goroutine, so their summed
// durations are exactly the part of the parent's interval they cover.
func selfTimes(spans []span) []layerTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	agg := make(map[string]*layerTime)
	for i, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalNs += d
		lt.SelfNs += d - covered[i]
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is the document written to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Layers   []layerTime `json:"layers"`
	Spans    []span      `json:"spans"`
}

// writeTrace merges the recorders (parents re-indexed into the merged
// slice) and writes the span file.
func writeTrace(path, workload string, seed int64, recs []*recorder) ([]layerTime, error) {
	var all []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := int32(len(all))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	layers := selfTimes(all)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Layers: layers, Spans: all})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return layers, err
}
