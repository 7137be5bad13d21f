package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the quartiles of xs by the rule of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method); with fewer than
// two samples all three are the single value.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// readReports loads the JSON lines written by --out, grouped by workload
// and mode ("paper-quick" or "paper-quick (traced)") and then by metric.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		group := r.Workload
		if r.Trace {
			group += " (traced)"
		}
		if out[group] == nil {
			out[group] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			out[group][k] = append(out[group][k], v)
		}
	}
	return out, sc.Err()
}

// compare prints, for every workload and metric in either file, the
// median and quartiles of each side and the change of the medians.
func compare(w io.Writer, oldPath, newPath string) error {
	old, err := readReports(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return err
	}
	groups := union(old, cur)
	for _, g := range groups {
		fmt.Fprintf(w, "== %s\n", g)
		fmt.Fprintf(w, "%-36s %-34s %-34s %s\n", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "change")
		for _, m := range union(old[g], cur[g]) {
			a, b := old[g][m], cur[g][m]
			change := "n/a"
			if len(a) > 0 && len(b) > 0 && median(a) != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(b)/median(a)-1))
			}
			fmt.Fprintf(w, "%-36s %-34s %-34s %s\n", m, side(a), side(b), change)
		}
	}
	return nil
}

func side(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q[1], q[0], q[2], len(xs))
}

// union returns the sorted keys of both maps.
func union[V any](a, b map[string]V) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
