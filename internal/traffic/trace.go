package traffic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
)

// TraceEvent is one recorded best-effort arrival: a frame entering the
// network at slot At, from Src to Dst. Traces let background load come
// from recorded (or synthesized-and-saved) arrival processes instead of
// live Poisson draws, so the exact same frame sequence can be replayed
// across runs, machines and sweep cells.
type TraceEvent struct {
	At  int64  `json:"at"`
	Src uint16 `json:"src"`
	Dst uint16 `json:"dst"`
}

// Trace is a timestamped arrival recording: events in non-decreasing
// slot order. The zero value is an empty trace.
type Trace struct {
	Events []TraceEvent
}

// TraceError reports a malformed trace input, pointing at the offending
// line (1-based).
type TraceError struct {
	Line int    // 1-based input line
	Msg  string // what was wrong with it
}

// Error renders the diagnostic with its line number.
func (e *TraceError) Error() string {
	return fmt.Sprintf("trace: line %d: %s", e.Line, e.Msg)
}

// ParseTrace reads a trace recording. Two line formats are accepted and
// may even be mixed (each line is sniffed independently):
//
//   - CSV: "at,src,dst" — three non-negative integers. A header line
//     "at,src,dst" is allowed and skipped. Blank lines and lines
//     starting with '#' are comments.
//   - ndjson: {"at": 17, "src": 1, "dst": 9} — one JSON object per
//     line, unknown fields rejected.
//
// Malformed lines are rejected with a *TraceError naming the 1-based
// line number; events must arrive in non-decreasing slot order (a
// recorded process is ordered by construction, so disorder means the
// file is corrupt).
func ParseTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		var ev TraceEvent
		if strings.HasPrefix(raw, "{") {
			dec := json.NewDecoder(strings.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ev); err != nil {
				return nil, &TraceError{Line: line, Msg: fmt.Sprintf("bad JSON event: %v", err)}
			}
			// Trailing garbage after the object is as malformed as a bad field.
			if dec.More() {
				return nil, &TraceError{Line: line, Msg: "trailing data after JSON event"}
			}
		} else {
			fields := strings.Split(raw, ",")
			if len(fields) != 3 {
				return nil, &TraceError{Line: line, Msg: fmt.Sprintf("want 3 CSV fields (at,src,dst), got %d", len(fields))}
			}
			if line == 1 && strings.TrimSpace(fields[0]) == "at" {
				continue // header
			}
			at, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
			if err != nil {
				return nil, &TraceError{Line: line, Msg: fmt.Sprintf("bad at %q", fields[0])}
			}
			src, err := strconv.ParseUint(strings.TrimSpace(fields[1]), 10, 16)
			if err != nil {
				return nil, &TraceError{Line: line, Msg: fmt.Sprintf("bad src %q", fields[1])}
			}
			dst, err := strconv.ParseUint(strings.TrimSpace(fields[2]), 10, 16)
			if err != nil {
				return nil, &TraceError{Line: line, Msg: fmt.Sprintf("bad dst %q", fields[2])}
			}
			ev = TraceEvent{At: at, Src: uint16(src), Dst: uint16(dst)}
		}
		if ev.At < 0 {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("negative slot %d", ev.At)}
		}
		if n := len(tr.Events); n > 0 && ev.At < tr.Events[n-1].At {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("out of order: slot %d after %d", ev.At, tr.Events[n-1].At)}
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadTraceFile is ParseTrace over a file, with the path woven into any
// error.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// WriteCSV emits the trace in the CSV line format ParseTrace reads
// back, header included — the canonical on-disk form.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "at,src,dst"); err != nil {
		return err
	}
	for _, ev := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", ev.At, ev.Src, ev.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Horizon returns the slot just past the last event (0 for an empty
// trace).
func (t *Trace) Horizon() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At + 1
}

// SyntheticTrace records a Poisson arrival process per flow over
// [0, horizon) and merges them into one time-ordered trace —
// the generator for trace files when no real capture is at hand.
// Deterministic for a given rng state: flows draw their arrival streams
// in declaration order, and the merge is stable (earlier-declared flows
// win slot ties).
func SyntheticTrace(rng *rand.Rand, flows [][2]uint16, rate float64, horizon int64) *Trace {
	tr := &Trace{}
	for _, f := range flows {
		for _, at := range PoissonArrivals(rng, rate, horizon) {
			tr.Events = append(tr.Events, TraceEvent{At: at, Src: f[0], Dst: f[1]})
		}
	}
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].At < tr.Events[j].At })
	return tr
}
