package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexsim/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{0, 50, 0, false},
		{19, 50, 9, false},
		{20, 50, 10, true},
		{39, 50, 19, true},
		{40, 75, 10, true},
		{99, 75, 24, true},
		{100, 90, 10, true},
		{200, 95, 10, true},
		{1000, 99, 10, true},
		{10000, 99.9, 10, true},
	} {
		pct, beyond, ok := tailPercentile(c.n)
		if pct != c.pct || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, ok=%v; want p%g, %d, %v", c.n, pct, beyond, ok, c.pct, c.beyond, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPct != 90 || s.Beyond != 10 || math.Abs(s.Tail-90.1) > 1e-9 || s.P50 != 50.5 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

func TestSetupFigureIsMedianOfRoundMinima(t *testing.T) {
	// Ten builds in five rounds of two; the rounds' minima are 3, 1, 9, 4, 2.
	ts := []float64{3, 8, 1, 7, 9, 9, 6, 4, 2, 5}
	if got := setupFigure(ts); got != 3 {
		t.Errorf("setupFigure = %v, want 3", got)
	}
	if got := setupFigure([]float64{2, 1, 3}); got != 2 {
		t.Errorf("setupFigure of fewer builds than rounds = %v, want their median 2", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

// smallRunner builds a small saturated configuration that deadlocks.
func smallConfig() sim.Config {
	c := sim.Default()
	c.K, c.N, c.VCs, c.Load, c.Seed = 8, 2, 1, 1.0, 3
	c.Shards = sim.AutoShards
	c.WarmupCycles, c.MeasureCycles = 0, 600
	return c
}

func TestDigestIgnoresWallClockButNotSimulation(t *testing.T) {
	res, err := sim.Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectBuildTime.Count() == 0 || res.Deadlocks == 0 {
		t.Fatalf("test configuration should run full detector passes and deadlock: %+v", res)
	}
	base := &digest{}
	if err := base.addResult(res); err != nil {
		t.Fatal(err)
	}

	timed := *res
	timed.DetectBuildTime.Merge(&res.DetectAnalyzeTime)
	timed.DetectAnalyzeTime.Observe(123456789)
	d := &digest{}
	if err := d.addResult(&timed); err != nil {
		t.Fatal(err)
	}
	if d.sum() != base.sum() {
		t.Error("digest changed when only wall-clock timing changed")
	}

	flipped := *res
	flipped.Deadlocks++
	d = &digest{}
	if err := d.addResult(&flipped); err != nil {
		t.Fatal(err)
	}
	if d.sum() == base.sum() {
		t.Error("digest did not change when a simulated field changed")
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	a, b := &digest{}, &digest{}
	for _, s := range []string{"x", "y", "z"} {
		a.add([]byte(s))
	}
	for _, s := range []string{"z", "x", "y"} {
		b.add([]byte(s))
	}
	if a.sum() != b.sum() {
		t.Error("digest depends on insertion order")
	}
	b.add([]byte("x"))
	if a.sum() == b.sum() {
		t.Error("digest ignores a repeated item")
	}
}

func TestSplitLoopMatchesStepCycle(t *testing.T) {
	c := smallConfig()
	if !splitStepOK(c) {
		t.Fatal("test configuration must be steppable by the split loop")
	}
	finish := func(l *layers) (*sim.Runner, []byte) {
		r, err := sim.NewRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		newStepper(r, l, newTracer(), 0).run(c.MeasureCycles)
		b, err := canonicalResult(r.Finish())
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	plain, pb := finish(nil)
	l := newLayers()
	split, sb := finish(l)
	if !bytes.Equal(pb, sb) {
		t.Errorf("results differ:\nStepCycle %s\nsplit     %s", pb, sb)
	}
	if plain.Net.TotalInjected() != split.Net.TotalInjected() ||
		plain.Net.DeliveredCount != split.Net.DeliveredCount ||
		plain.Detector.Stats.Deadlocks != split.Detector.Stats.Deadlocks {
		t.Errorf("end states differ: injected %d/%d delivered %d/%d deadlocks %d/%d",
			plain.Net.TotalInjected(), split.Net.TotalInjected(), plain.Net.DeliveredCount,
			split.Net.DeliveredCount, plain.Detector.Stats.Deadlocks, split.Detector.Stats.Deadlocks)
	}
	if l.loopCycles != float64(c.MeasureCycles) || l.step.Count() != int64(c.MeasureCycles) || l.fullPasses == 0 {
		t.Errorf("split loop accounted %v cycles, %d steps, %v full passes", l.loopCycles, l.step.Count(), l.fullPasses)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "job", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "point", Start: 10, Dur: 40},
		{ID: 3, Parent: 1, Name: "point", Start: 30, Dur: 40}, // overlaps the first
	}
	got := map[string]int64{}
	for _, lt := range tr.selfTimes() {
		got[lt.Name] = lt.Self.Microseconds()
	}
	if got["job"] != 40 || got["point"] != 80 {
		t.Errorf("self times = %v, want job 40us, point 80us", got)
	}
}

// TestSmokeEveryWorkload runs every workload at toy size, untraced and
// traced, and requires the output checks to pass against the committed toy
// digests.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs skipped in -short")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			o := options{seed: defaultSeed, seconds: 1, traced: traced, toy: true, work: t.TempDir()}
			rep, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d problems=%v",
					w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			for _, d := range rep.defs() {
				v, ok := rep.Metrics[d.Name]
				if !ok || math.IsNaN(v) || v < 0 || !traced && v == 0 {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", w.name, traced, d.Name, v, ok)
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestCompareReadsReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals ...float64) string {
		p := filepath.Join(dir, name)
		for _, v := range vals {
			if err := appendJSONLine(p, &report{Workload: "fleet", Metrics: map[string]float64{"wall_s": v}}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	old, cur := write("old.jsonl", 1, 2, 3), write("new.jsonl", 2, 4, 6)
	var out strings.Builder
	if err := compare(&out, old, cur); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== fleet") || !strings.Contains(out.String(), "+100.0%") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
