package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative le-bucketed _bucket series plus _sum and _count.
// Labeled families (CounterVec/HistogramVec) emit one TYPE line per family
// followed by their series in sorted label order, and histogram buckets that
// hold an exemplar append it OpenMetrics-style
// (`... # {trace_id="..."} value`) so a scraper that understands exemplars
// can jump from a latency bucket to the retained trace. Metric names are
// reported verbatim (the registry's naming convention is already snake_case
// with conventional suffixes) and each family is emitted in sorted name
// order, so the output is deterministic for a fixed registry state — which
// is what the golden-file test pins down.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Load()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Load()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for n, h := range r.hists {
		hists[n] = r.filterExemplars(h.Snapshot())
	}
	cvecs := make(map[string]map[string]int64, len(r.cvecs))
	for n, v := range r.cvecs {
		cvecs[n] = v.snapshot()
	}
	hvecs := make(map[string]map[string]HistogramSnapshot, len(r.hvecs))
	for n, v := range r.hvecs {
		series := v.snapshot()
		for k, hs := range series {
			series[k] = r.filterExemplars(hs)
		}
		hvecs[n] = series
	}
	r.mu.RUnlock()

	// Counter families: plain counters and counter vecs share one sorted
	// namespace (the registry never registers both kinds under one name).
	names := make([]string, 0, len(counters)+len(cvecs))
	for n := range counters {
		names = append(names, n)
	}
	for n := range cvecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if series, ok := cvecs[n]; ok {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", n); err != nil {
				return err
			}
			for _, key := range sortedSeriesKeys(series) {
				if _, err := fmt.Fprintf(w, "%s{%s} %d\n", n, key, series[key]); err != nil {
					return err
				}
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(gauges[n])); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range hists {
		names = append(names, n)
	}
	for n := range hvecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		if series, ok := hvecs[n]; ok {
			for _, key := range sortedSeriesKeys(series) {
				if err := writeHistSeries(w, n, key, series[key]); err != nil {
					return err
				}
			}
			continue
		}
		if err := writeHistSeries(w, n, "", hists[n]); err != nil {
			return err
		}
	}
	return nil
}

// writeHistSeries emits one histogram series: its non-empty cumulative
// buckets (a legal exposition as long as +Inf closes the series with the
// total count), exemplars where present, then _sum and _count. labels is the
// rendered label block without braces ("" for an unlabeled histogram).
func writeHistSeries(w io.Writer, name, labels string, h HistogramSnapshot) error {
	blk := func(extra string) string {
		if labels == "" {
			return extra
		}
		return labels + "," + extra
	}
	for _, b := range h.Le {
		ex := ""
		if b.Exemplar != nil {
			// OpenMetrics exemplar: ` # {trace_id="..."} value`. The
			// timestamp is optional and omitted to keep the exposition
			// deterministic for a fixed registry state.
			ex = fmt.Sprintf(" # {trace_id=%q} %s", b.Exemplar.TraceID, promFloat(b.Exemplar.Value))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d%s\n", name, blk("le=\""+promFloat(b.Le)+"\""), b.Count, ex); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, blk(`le="+Inf"`), h.Count); err != nil {
		return err
	}
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, labels, promFloat(h.Sum), name, labels, h.Count)
	return err
}

// promFloat formats a float64 the way Prometheus clients do: shortest
// round-trip representation, with the special values spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
