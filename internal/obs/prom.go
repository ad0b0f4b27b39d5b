package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format, grouping consecutive series of the same
// family under one # HELP / # TYPE header. Histograms expand into
// cumulative _bucket{le=…} series plus _sum and _count. Output order is
// registration order, so the rendering is deterministic (golden-tested
// in prom_test.go).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevFamily := ""
	for _, m := range r.snapshot() {
		if m.name != prevFamily {
			typ := "counter"
			switch m.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, typ)
			prevFamily = m.name
		}
		switch m.kind {
		case kindCounter:
			writeSample(bw, m.name, m.labels, float64(m.counter.Load()))
		case kindGauge:
			writeSample(bw, m.name, m.labels, float64(m.gauge.Load()))
		case kindGaugeFunc, kindCounterFunc:
			writeSample(bw, m.name, m.labels, m.gaugeFunc())
		case kindHistogram:
			writeHistogram(bw, m)
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram's cumulative buckets, sum and
// count.
func writeHistogram(w io.Writer, m *metric) {
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := m.hist.buckets[i].Load()
		cum += n
		if n == 0 && i < histBuckets-1 {
			// Keep the exposition compact: only materialized finite
			// buckets are printed (cumulative semantics make the skipped
			// ones recoverable), but le="+Inf" always appears.
			continue
		}
		le := "+Inf"
		if i < histBuckets-1 {
			le = strconv.FormatInt(int64(1)<<i, 10)
		}
		labels := `le="` + le + `"`
		if m.labels != "" {
			labels = m.labels + "," + labels
		}
		writeSample(w, m.name+"_bucket", labels, float64(cum))
	}
	writeSample(w, m.name+"_sum", m.labels, float64(m.hist.Sum()))
	writeSample(w, m.name+"_count", m.labels, float64(m.hist.Count()))
}

// writeSample renders one `name{labels} value` line.
func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
}

// formatValue renders a sample value: integral values print without a
// decimal point, everything else with full float precision.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText parses a Prometheus text exposition into a flat map from
// series (the full `name{labels}` string, or the bare name when
// unlabeled) to value. It is the scrape half of the loop: the benchmark
// GETs /metrics before and after a run and differences the two maps to
// attribute server-side counters to the run. Comment
// and blank lines are skipped; malformed lines are ignored rather than
// fatal, so a scrape never kills a run.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
