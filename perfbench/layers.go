package main

import (
	"sync"
	"time"

	"flexsim/internal/network"
	"flexsim/internal/obs"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. failed_frac is printed too, but the report carries it as the
// attempted/failed counts: it is 0 on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"warm_points_per_s", "1/s", "higher", 0.25},
	{"router_cycles_per_s", "1/s", "higher", 0.25},
	{"point_s_p50", "s", "lower", 0.25},
	{"point_s_tail", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, one group per program layer.
var perLayer = []metricDef{
	{"process.cpu_util", "frac", "higher", 0},
	{"runtime.gc_cpu_frac", "frac", "lower", 0},
	{"experiments.wall_s.fig5", "s", "lower", 0},
	{"experiments.wall_s.fig6", "s", "lower", 0},
	{"experiments.wall_s.fig7", "s", "lower", 0},
	{"experiments.wall_s.fig8", "s", "lower", 0},
	{"sim.setup_ms", "ms", "lower", 0},
	{"sim.cycle_us_p50", "us", "lower", 0},
	{"sim.cycle_us_tail", "us", "lower", 0},
	{"traffic.generate_ns_per_cycle", "ns", "lower", 0},
	{"network.step_ns_per_router_cycle", "ns", "lower", 0},
	{"network.allocs_per_cycle", "count", "lower", 0},
	{"network.bytes_per_cycle", "B", "lower", 0},
	{"network.phase_frac.drain_inject", "frac", "lower", 0},
	{"network.phase_frac.alloc_plan", "frac", "lower", 0},
	{"network.phase_frac.arb_eject", "frac", "lower", 0},
	{"network.phase_frac.apply_release", "frac", "lower", 0},
	{"network.barrier_stall_frac", "frac", "lower", 0},
	{"network.cross_shard_per_cycle", "count", "lower", 0},
	{"network.shards", "count", "higher", 0},
	{"detect.tick_ns_per_cycle", "ns", "lower", 0},
	{"detect.build_us_p50", "us", "lower", 0},
	{"detect.build_us_tail", "us", "lower", 0},
	{"detect.analyze_us_p50", "us", "lower", 0},
	{"detect.analyze_us_tail", "us", "lower", 0},
	{"detect.passes", "count", "higher", 0},
	{"detect.gated_frac", "frac", "higher", 0},
	{"detect.deadlock_pass_frac", "frac", "higher", 0},
	{"cwg.knot_cycles_per_pass", "count", "lower", 0},
	{"store.key_us", "us", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"store.put_us_p50", "us", "lower", 0},
	{"store.hit_ratio", "frac", "higher", 0},
	{"store.bytes_per_point", "B", "lower", 0},
	{"sweepsvc.submit_ms", "ms", "lower", 0},
	{"sweepsvc.results_ms", "ms", "lower", 0},
	{"sweepsvc.queue_wait_ms_p50", "ms", "lower", 0},
	{"sweepsvc.dispatch_overhead_ms_p50", "ms", "lower", 0},
	{"sweepsvc.retries", "count", "lower", 0},
	{"sweepsvc.steals", "count", "lower", 0},
	{"sweepsvc.warm_allocs_per_point", "count", "lower", 0},
	{"worker.exec_s_p50", "s", "lower", 0},
	{"profile.engine_frac", "frac", "lower", 0},
	{"profile.detect_frac", "frac", "lower", 0},
}

// phaseMetric maps the engine's launch names to metric suffixes.
var phaseMetric = [network.EnginePhases]string{"drain_inject", "alloc_plan", "arb_eject", "apply_release"}

// layers accumulates the traced run's per-layer counters across jobs. Each
// metric has one source, named in README.md; a layer that a workload does
// not reach reports 0.
type layers struct {
	mu sync.Mutex

	// Process, over the traced jobs.
	wall, cpu, gcCPU, allCPU float64
	procs                    int

	expWall map[string][]float64

	// The split stepping loop (single-run workloads and the probe run).
	setupMs                   []float64
	cycle, gen, step, tick    stats.Histogram // ns per cycle
	loopCycles, allocs, bytes float64
	fullPasses, dlPasses      float64

	// Engine telemetry (network.EngineStats).
	phaseWall                       [network.EnginePhases]float64
	engIdle, engWorkerWall, engWall float64
	engCross, engCycles, engRC      float64
	shards                          int

	// Detector, from every run's stats.Result.
	build, analyze              stats.Histogram
	invocations, gated, knotCyc float64
	detectNs                    float64
	hits, lookups               float64
	storeBytes, storePoints     float64
	keyUs, getUs, putUs         []float64
	submitMs, resultsMs         []float64
	queueWaitMs, overheadMs     []float64
	execS                       []float64
	retries, steals             float64
	warmAllocs, warmPoints      float64
}

func newLayers() *layers { return &layers{expWall: make(map[string][]float64)} }

// proc folds the process counters between two samples.
func (l *layers) proc(a, b procSample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wall += b.wall.Sub(a.wall).Seconds()
	l.cpu += (b.cpu - a.cpu).Seconds()
	l.gcCPU += b.gcCPU - a.gcCPU
	l.allCPU += b.totalCPU - a.totalCPU
	l.procs = gomaxprocs()
}

// result folds one run's detector aggregates.
func (l *layers) result(res *stats.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.build.Merge(&res.DetectBuildTime)
	l.analyze.Merge(&res.DetectAnalyzeTime)
	l.invocations += float64(res.Invocations)
	l.gated += float64(res.GatedInvocations)
	l.knotCyc += float64(res.SumKnotCycles)
	l.detectNs += res.DetectBuildTime.Mean()*float64(res.DetectBuildTime.Count()) +
		res.DetectAnalyzeTime.Mean()*float64(res.DetectAnalyzeTime.Count())
}

// engineReport folds an obs.EngineProfile's report over runs of one size.
func (l *layers) engineReport(rep *obs.EngineReport, routers int) {
	if rep.Cycles == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for ph, p := range rep.Phases {
		l.phaseWall[ph] += float64(p.WallNs)
	}
	l.engWall += float64(rep.WallNs)
	l.engWorkerWall += float64(rep.Shards) * float64(rep.WallNs)
	l.engIdle += rep.IdleFraction * float64(rep.Shards) * float64(rep.WallNs)
	l.engCross += float64(rep.CrossShardRequests + rep.CrossShardGrants)
	l.engCycles += float64(rep.Cycles)
	l.engRC += float64(rep.Cycles) * float64(routers)
	l.shards = max(l.shards, rep.Shards)
}

// store folds the hit counts and size of a result store.
func (l *layers) store(hits, lookups float64, bytes int64, points int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hits += hits
	l.lookups += lookups
	l.storeBytes += float64(bytes)
	l.storePoints += float64(points)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the per-layer metrics.
func (l *layers) metrics() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]float64{
		"process.cpu_util":    ratio(l.cpu, l.wall*float64(max(l.procs, 1))),
		"runtime.gc_cpu_frac": ratio(l.gcCPU, l.allCPU),
	}
	for _, f := range paperFigures {
		m["experiments.wall_s."+f] = median(l.expWall[f])
	}
	cyc := histSummary(&l.cycle)
	m["sim.setup_ms"] = median(l.setupMs)
	m["sim.cycle_us_p50"] = cyc.P50
	m["sim.cycle_us_tail"] = cyc.Tail
	m["traffic.generate_ns_per_cycle"] = l.gen.Mean()
	m["network.step_ns_per_router_cycle"] = ratio(l.engWall, l.engRC)
	m["network.allocs_per_cycle"] = ratio(l.allocs, l.loopCycles)
	m["network.bytes_per_cycle"] = ratio(l.bytes, l.loopCycles)
	for ph, name := range phaseMetric {
		m["network.phase_frac."+name] = ratio(l.phaseWall[ph], l.engWall)
	}
	m["network.barrier_stall_frac"] = ratio(l.engIdle, l.engWorkerWall)
	m["network.cross_shard_per_cycle"] = ratio(l.engCross, l.engCycles)
	m["network.shards"] = float64(l.shards)
	build, analyze := histSummary(&l.build), histSummary(&l.analyze)
	full := l.invocations - l.gated
	m["detect.tick_ns_per_cycle"] = l.tick.Mean()
	m["detect.build_us_p50"] = build.P50
	m["detect.build_us_tail"] = build.Tail
	m["detect.analyze_us_p50"] = analyze.P50
	m["detect.analyze_us_tail"] = analyze.Tail
	m["detect.passes"] = l.invocations
	m["detect.gated_frac"] = ratio(l.gated, l.invocations)
	m["detect.deadlock_pass_frac"] = ratio(l.dlPasses, l.fullPasses)
	m["cwg.knot_cycles_per_pass"] = ratio(l.knotCyc, full)
	m["store.key_us"] = median(l.keyUs)
	m["store.get_us_p50"] = median(l.getUs)
	m["store.put_us_p50"] = median(l.putUs)
	m["store.hit_ratio"] = ratio(l.hits, l.lookups)
	m["store.bytes_per_point"] = ratio(l.storeBytes, l.storePoints)
	m["sweepsvc.submit_ms"] = median(l.submitMs)
	m["sweepsvc.results_ms"] = median(l.resultsMs)
	m["sweepsvc.queue_wait_ms_p50"] = median(l.queueWaitMs)
	m["sweepsvc.dispatch_overhead_ms_p50"] = median(l.overheadMs)
	m["sweepsvc.retries"] = l.retries
	m["sweepsvc.steals"] = l.steals
	m["sweepsvc.warm_allocs_per_point"] = ratio(l.warmAllocs, l.warmPoints)
	m["worker.exec_s_p50"] = median(l.execS)
	// Profile shares of the traced host CPU time: the engine's kernel wall
	// time and the detector's pass time over all CPU the process used.
	m["profile.engine_frac"] = ratio(l.engWall/1e9, l.cpu)
	m["profile.detect_frac"] = ratio(l.detectNs/1e9, l.cpu)
	return m
}

// stepper advances a Runner one cycle at a time. Untraced it calls
// StepCycle; traced it makes StepCycle's calls itself — Proc.Generate,
// Network.Step, Detector.Tick — and times each. The two are the same
// sequence for the configurations the benchmark steps (open-loop traffic,
// no fault schedule, no interval metrics, outside a measurement window),
// which newStepper checks.
type stepper struct {
	r      *sim.Runner
	l      *layers // nil = untraced
	tr     *tracer
	parent int
	ac     *allocCounter
	inject func(src, dst, length int)
}

func newStepper(r *sim.Runner, l *layers, tr *tracer, parent int) *stepper {
	s := &stepper{r: r, l: l, tr: tr, parent: parent}
	if l != nil {
		s.ac = newAllocCounter()
		s.inject = func(src, dst, length int) { r.Net.Inject(src, dst, length) }
	}
	return s
}

// splitStepOK reports whether the split loop reproduces StepCycle for c.
func splitStepOK(c sim.Config) bool {
	return c.Workload == "" && len(c.FaultEvents) == 0 && c.FaultLinkMTTF == 0 &&
		c.MetricsEvery == 0 && c.MetricsLive == nil && c.Heatmap == nil && c.Spans == nil
}

// run advances n cycles.
func (s *stepper) run(n int) {
	if s.l == nil {
		for i := 0; i < n; i++ {
			s.r.StepCycle()
		}
		return
	}
	r, l := s.r, s.l
	var cycle, gen, step, tick stats.Histogram
	var allocs, bytes uint64
	var full, dl int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r.Proc.Generate(s.inject)
		t1 := time.Now()
		o0, b0 := s.ac.read()
		t2 := time.Now()
		r.Net.Step()
		t3 := time.Now()
		o1, b1 := s.ac.read()
		inv, gated, dls := r.Detector.Stats.Invocations, r.Detector.Stats.Gated, r.Detector.Stats.Deadlocks
		t4 := time.Now()
		r.Detector.Tick()
		t5 := time.Now()
		gen.Observe(t1.Sub(t0).Nanoseconds())
		step.Observe(t3.Sub(t2).Nanoseconds())
		tick.Observe(t5.Sub(t4).Nanoseconds())
		cycle.Observe(t1.Sub(t0).Nanoseconds() + t3.Sub(t2).Nanoseconds() + t5.Sub(t4).Nanoseconds())
		allocs += o1 - o0
		bytes += b1 - b0
		if r.Detector.Stats.Invocations > inv && r.Detector.Stats.Gated == gated {
			full++
			found := r.Detector.Stats.Deadlocks - dls
			if found > 0 {
				dl++
			}
			s.tr.record("detect.pass", s.parent, t4, t5, map[string]any{"cycle": r.Net.Now(), "deadlocks": found})
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cycle.Merge(&cycle)
	l.gen.Merge(&gen)
	l.step.Merge(&step)
	l.tick.Merge(&tick)
	l.loopCycles += float64(n)
	l.allocs += float64(allocs)
	l.bytes += float64(bytes)
	l.fullPasses += float64(full)
	l.dlPasses += float64(dl)
}
