package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// summarize reads the result lines of several runs (the last-line JSON
// objects, one per line; other lines are skipped) from each file and prints,
// per metric, the median, the quartiles and the interquartile spread as a
// share of the median: the figures a metric's bound is judged against.
func summarize(w io.Writer, paths []string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	runs, failed := 0, 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, `{"correct"`) {
				continue
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				f.Close()
				return fmt.Errorf("%s: %w", p, err)
			}
			runs++
			if !r.Correct || r.Failed > 0 {
				failed++
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if runs == 0 {
		return fmt.Errorf("no result lines in %v", paths)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d incorrect or with failed operations\n", runs, failed)
	fmt.Fprintf(w, "%-34s %6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		xs := values[name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-34s %6s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], median(xs), q1, q3, relativeSpread(xs))
	}
	return nil
}
