package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/core"
	"flexsim/internal/experiments"
	"flexsim/internal/obs"
	"flexsim/internal/obs/fleettrace"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/stats"
	"flexsim/internal/sweepsvc"
)

// A job builds its fixtures at least minSetups times, and more while the
// builds so far took under setupBudget (up to maxSetups); the job keeps the
// last set, and setupFigure reduces the build times.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 200 * time.Millisecond
)

// moreSetups reports whether a job that has built its fixtures n times,
// taking spent in total, builds them again.
func moreSetups(n int, spent time.Duration) bool {
	return n < minSetups || n < maxSetups && spent < setupBudget
}

// setupFigure reduces one job's fixture build times to its set-up time: the
// builds, in order, are split into minSetups rounds, and the figure is the
// median of the rounds' fastest builds. Other load on the host only adds
// time, so a round's fastest build is its least disturbed one, and the
// median over rounds still discards a round disturbed throughout.
func setupFigure(ts []float64) float64 {
	if len(ts) < minSetups {
		return median(ts)
	}
	mins := make([]float64, minSetups)
	for r := range mins {
		mins[r] = slices.Min(ts[r*len(ts)/minSetups : (r+1)*len(ts)/minSetups])
	}
	return median(mins)
}

// paperFigures are the experiments the paper-quick workload runs.
var paperFigures = []string{"fig5", "fig6", "fig7", "fig8"}

// env is one workload run's settings and, when traced, its recorders.
type env struct {
	seed   uint64
	toy    bool     // tiny sizes, for the benchmark's own tests
	work   string   // scratch directory for result stores
	l      *layers  // nil = untraced
	tr     *tracer  // nil = untraced
	parent int      // span of the current job
	shards shardLog // resolved shard count of every configuration run
}

func (e *env) freshDir() (string, error) { return os.MkdirTemp(e.work, "store-") }

// emptyStore makes a directory holding an empty result store, created by
// opening it once. Set-up then opens an existing store, as a deployment
// does; the file creation left out takes a disk journal operation whose
// time drifts with the disk's state over minutes.
func (e *env) emptyStore() (string, error) {
	dir, err := e.freshDir()
	if err != nil {
		return "", err
	}
	c, err := runner.Open(dir)
	if err != nil {
		return "", err
	}
	return dir, c.Close()
}

// shardLog records the resolved shard count per configuration class.
type shardLog struct {
	mu sync.Mutex
	m  map[string]int
}

func (s *shardLog) note(class string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]int)
	}
	s.m[class] = n
}

// topoClass names a configuration's network for the shard log.
func topoClass(c sim.Config) string { return fmt.Sprintf("%d-ary %d-cube", c.K, c.N) }

// resolveShards builds (and discards) a Runner to read the shard count the
// program resolves for c.
func resolveShards(c sim.Config) (int, error) {
	r, err := sim.NewRunner(c)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return r.Net.Shards(), nil
}

// jobResult is what one job of a workload measured.
type jobResult struct {
	setupS                 []float64 // fixture build times
	warmSetupS             []float64 // warm-phase fixture build times, if any
	coldS, warmS           float64
	coldPoints, warmPoints int
	warmRates              []float64 // points per second of each warm request
	routerCycles           float64   // routers × simulated cycles, cold phase
	pointS                 []float64
	attempted, failed      int
	digest                 string
	problems               []string // measurement checks that failed
}

func (j *jobResult) wallS() float64 { return j.coldS + j.warmS }

// workload is one benchmark input set. A job builds its fixtures, runs the
// cold phase against an empty result store, then the warm phase, which
// asks for the same points again and is served from the store.
type workload struct {
	name, why string
	job       func(ctx context.Context, e *env) (*jobResult, error)
	// probe, if set, is a representative single run that the traced run
	// steps with the split loop, for the sim/traffic/network layers that
	// the workload's own runs hide inside the program.
	probe func(e *env) sim.Config
}

var workloads = []workload{
	{
		name: "paper-quick",
		why:  "the paper's fig5-fig8 in quick mode: many small cache-resident runs fanned out by runner.Map; engine and GC dominate",
		job:  paperQuickJob,
		probe: func(e *env) sim.Config {
			c := sim.Quick()
			c.Seed, c.Load, c.Shards = e.seed, 0.6, sim.AutoShards
			return c
		},
	},
	{
		name: "knot-density",
		why:  "saturated 32-ary 2-cube, 1 VC, paper detector with knot cycle density: Johnson enumeration dominates",
		job:  func(ctx context.Context, e *env) (*jobResult, error) { return singleRunJob(ctx, e, knotDensity(e)) },
	},
	{
		name: "large-net",
		why:  "one 32-ary 3-cube run above L3 size: the sharded engine is the only parallelism",
		job:  func(ctx context.Context, e *env) (*jobResult, error) { return singleRunJob(ctx, e, largeNet(e)) },
	},
	{
		name:  "fleet",
		why:   "sweepsvc coordinator and 2 HTTP workers on one store: cold sweep, then a store-served warm resubmit",
		job:   fleetJob,
		probe: func(e *env) sim.Config { return fleetSpec(e).Points[0].ToSim() },
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// singleRun is one Runner stepped for a fixed number of cycles.
type singleRun struct {
	cfg    sim.Config
	cycles int
}

// knotDensity: TFAR with 1 VC at saturation, the paper's detector
// (every 50 cycles, knot cycle density, default enumeration caps).
func knotDensity(e *env) singleRun {
	c := sim.Default()
	c.K, c.N, c.VCs, c.Routing, c.Load = 32, 2, 1, "tfar", 1.0
	cycles := 1200
	if e.toy {
		c.K, cycles = 8, 400
	}
	c.Seed = e.seed
	return singleRun{c, cycles}
}

// largeNet: one TFAR 2-VC run on a 32-ary 3-cube (32768 routers).
func largeNet(e *env) singleRun {
	c := sim.Default()
	c.K, c.N, c.VCs, c.Routing, c.Load = 32, 3, 2, "tfar", 0.8
	cycles := 150
	if e.toy {
		c.K, cycles = 6, 100
	}
	c.Seed = e.seed
	return singleRun{c, cycles}
}

// singleRunJob builds one Runner, steps it from an empty network without a
// measurement window (so the traced split loop is exactly StepCycle), and
// stores and re-reads its result.
func singleRunJob(ctx context.Context, e *env, sr singleRun) (*jobResult, error) {
	cfg := sr.cfg
	cfg.WarmupCycles, cfg.MeasureCycles = 0, sr.cycles
	cfg.Shards = sim.AutoShards
	var prof *obs.EngineProfile
	if e.l != nil {
		prof = &obs.EngineProfile{}
		cfg.EngineSink = prof
	}
	if !splitStepOK(cfg) {
		return nil, fmt.Errorf("configuration not steppable by the split loop")
	}
	jr := &jobResult{}
	var r *sim.Runner
	var cache *runner.Cache
	var dir string
	for spent := time.Duration(0); moreSetups(len(jr.setupS), spent); {
		if r != nil {
			// Drop the previous set before building the next, so the process
			// never holds two networks and its peak memory is one run's.
			r.Close()
			cache.Close()
			r = nil
			runtime.GC()
		}
		d, err := e.emptyStore()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err := runner.Open(d)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rr, err := sim.NewRunner(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		t2 := time.Now()
		spent += t2.Sub(t0)
		jr.setupS = append(jr.setupS, t2.Sub(t0).Seconds())
		if e.l != nil {
			e.l.mu.Lock()
			e.l.setupMs = append(e.l.setupMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
			e.l.mu.Unlock()
		}
		r, cache, dir = rr, c, d
	}
	defer cache.Close()
	e.shards.note(topoClass(cfg), r.Net.Shards())
	nodes := r.Topo.Nodes()

	run := e.tr.begin("run", e.parent)
	t0 := time.Now()
	newStepper(r, e.l, e.tr, run).run(sr.cycles)
	res := r.Finish()
	t1 := time.Now()
	cache.Put(cfg, res)
	t2 := time.Now()
	e.tr.end(run, map[string]any{"cycles": sr.cycles, "routers": nodes, "shards": r.Net.Shards()})
	jr.coldS, jr.coldPoints = t2.Sub(t0).Seconds(), 1
	jr.pointS = []float64{t1.Sub(t0).Seconds()}
	jr.routerCycles = float64(nodes) * float64(sr.cycles)

	d := &digest{}
	if err := d.addResult(res); err != nil {
		return nil, err
	}
	counts, err := json.Marshal(map[string]int64{
		"injected": r.Net.TotalInjected(), "delivered": r.Net.DeliveredCount,
		"recovered": r.Net.RecoveredCount, "deadlocks": r.Detector.Stats.Deadlocks, "cycle": r.Net.Now(),
	})
	if err != nil {
		return nil, err
	}
	d.add(counts)
	jr.digest = d.sum()

	// Warm: the same point asked of runner.Map, served from the store, once
	// the cold phase's garbage is collected.
	runtime.GC()
	const warmReps = 400
	warm := e.tr.begin("warm", e.parent)
	pts := make([]runner.Point, 0, warmReps)
	t0 = time.Now()
	for i := 0; i < warmReps; i++ {
		ti := time.Now()
		pts = append(pts, runner.Map(ctx, []sim.Config{cfg}, runner.Options{Cache: cache})[0])
		jr.warmRates = append(jr.warmRates, 1/time.Since(ti).Seconds())
	}
	jr.warmS, jr.warmPoints = time.Since(t0).Seconds(), warmReps
	e.tr.end(warm, nil)
	jr.attempted = 1 + warmReps
	want, err := canonicalResult(res)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if p.Status != runner.Cached {
			jr.failed++
			continue
		}
		got, err := canonicalResult(p.Result)
		if err != nil {
			return nil, err
		}
		if string(got) != string(want) {
			return nil, fmt.Errorf("warm result differs from the cold result")
		}
	}

	if e.l != nil {
		e.l.result(res)
		e.l.engineReport(prof.Report(), nodes)
		timeStore(e.l, cache, []sim.Config{cfg}, nil)
		e.l.mu.Lock()
		e.l.putUs = append(e.l.putUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
		e.l.mu.Unlock()
		size, err := dirSize(dir)
		if err != nil {
			return nil, err
		}
		e.l.store(float64(cache.Hits()), float64(cache.Hits()+cache.Misses()), size, cache.Len())
	}
	return jr, nil
}

// timeStore times runner.Key and Cache.GetRaw for every configuration, and
// put(key, i), when given, which stores configuration i's result.
func timeStore(l *layers, cache *runner.Cache, cfgs []sim.Config, put func(key string, i int)) {
	var key, get, putUs []float64
	for i, c := range cfgs {
		t0 := time.Now()
		k := runner.Key(c)
		t1 := time.Now()
		cache.GetRaw(k)
		t2 := time.Now()
		key = append(key, float64(t1.Sub(t0).Nanoseconds())/1e3)
		get = append(get, float64(t2.Sub(t1).Nanoseconds())/1e3)
		if put != nil {
			t3 := time.Now()
			put(k, i)
			putUs = append(putUs, float64(time.Since(t3).Nanoseconds())/1e3)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keyUs = append(l.keyUs, key...)
	l.getUs = append(l.getUs, get...)
	l.putUs = append(l.putUs, putUs...)
}

// dirSize sums the sizes of the regular files in dir.
func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// paperQuickJob runs fig5-fig8 the way `charsweep -quick -cache-dir` does:
// experiments.ByName, auto shards, parallelism = GOMAXPROCS, against a
// fresh store (cold), then again against the filled store (warm). Its
// fixtures are the store, the four experiments and one quick-size Runner,
// the per-point set-up every run of the sweep repeats; that Runner also
// gives the shard count the program resolves for the sweep.
func paperQuickJob(ctx context.Context, e *env) (*jobResult, error) {
	jr := &jobResult{}
	var cache *runner.Cache
	var dir string
	var figs []experiments.Func
	quick := sim.Quick()
	quick.Seed, quick.Shards = e.seed, sim.AutoShards
	shards := 0
	for spent := time.Duration(0); moreSetups(len(jr.setupS), spent); {
		if cache != nil {
			cache.Close()
		}
		d, err := e.emptyStore()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err := runner.Open(d)
		if err != nil {
			return nil, err
		}
		fs := make([]experiments.Func, len(paperFigures))
		for j, id := range paperFigures {
			if fs[j], err = experiments.ByName(id); err != nil {
				c.Close()
				return nil, err
			}
		}
		r, err := sim.NewRunner(quick)
		if err != nil {
			c.Close()
			return nil, err
		}
		d0 := time.Since(t0)
		shards = r.Net.Shards()
		r.Close()
		spent += d0
		jr.setupS = append(jr.setupS, d0.Seconds())
		cache, dir, figs = c, d, fs
	}
	defer func() {
		if cache != nil {
			cache.Close()
		}
	}()
	e.shards.note(topoClass(quick), shards)

	opts := experiments.Options{Quick: true, Seed: e.seed, Shards: sim.AutoShards, Context: ctx, Cache: cache}
	if e.toy {
		opts.Loads = []float64{0.6}
	}
	var prof *obs.EngineProfile
	if e.l != nil {
		prof = &obs.EngineProfile{}
		opts.ProfileEngine, opts.EngineSink = true, prof
	}

	// phase runs every figure once, returning the settled points and each
	// point's time from its experiment's start.
	phase := func(name string) ([]core.Point, []float64, time.Duration, error) {
		var mu sync.Mutex
		var pts []core.Point
		var lat []float64
		ps := e.tr.begin(name, e.parent)
		t0 := time.Now()
		for i, f := range figs {
			start := time.Now()
			es := e.tr.begin("experiment."+paperFigures[i], ps)
			opts.OnPoint = func(p core.Point) {
				now := time.Now()
				mu.Lock()
				pts = append(pts, p)
				lat = append(lat, now.Sub(start).Seconds())
				mu.Unlock()
				e.tr.record("point", es, start, now, map[string]any{"load": p.Load, "status": string(p.Status)})
			}
			if _, err := f(opts); err != nil {
				return nil, nil, 0, fmt.Errorf("%s: %w", paperFigures[i], err)
			}
			e.tr.end(es, nil)
			if name == "cold" && e.l != nil {
				e.l.mu.Lock()
				e.l.expWall[paperFigures[i]] = append(e.l.expWall[paperFigures[i]], time.Since(start).Seconds())
				e.l.mu.Unlock()
			}
		}
		wall := time.Since(t0)
		e.tr.end(ps, nil)
		return pts, lat, wall, nil
	}
	cold, lat, coldWall, err := phase("cold")
	if err != nil {
		return nil, err
	}
	opts.ProfileEngine, opts.EngineSink = false, nil

	// The warm phase is a re-run against the filled store, as a resumed
	// `charsweep -quick -cache-dir` is: its fixture is the store re-opened,
	// which reads back every stored result.
	hits, lookups := cache.Hits(), cache.Hits()+cache.Misses()
	cache.Close()
	cache = nil
	for spent := time.Duration(0); moreSetups(len(jr.warmSetupS), spent); {
		if cache != nil {
			cache.Close()
		}
		t0 := time.Now()
		c, err := runner.Open(dir)
		if err != nil {
			return nil, err
		}
		d0 := time.Since(t0)
		spent += d0
		jr.warmSetupS = append(jr.warmSetupS, d0.Seconds())
		cache = c
	}
	opts.Cache = cache
	runtime.GC() // the cold phase's garbage, before the warm phase is timed
	const warmReps = 30
	var warms [][]core.Point
	for i := 0; i < warmReps; i++ {
		pts, _, wall, err := phase("warm")
		if err != nil {
			return nil, err
		}
		warms = append(warms, pts)
		jr.warmS += wall.Seconds()
		jr.warmRates = append(jr.warmRates, float64(len(pts))/wall.Seconds())
		jr.warmPoints += len(pts)
	}
	jr.coldS = coldWall.Seconds()
	jr.coldPoints = len(cold)
	jr.pointS = lat
	jr.attempted = len(cold) + jr.warmPoints

	coldD := &digest{}
	for _, p := range cold {
		// A configuration shared by two figures is served from the store
		// the second time, as with charsweep -cache-dir.
		if p.Status != core.StatusDone && p.Status != core.StatusCached || p.Result == nil {
			jr.failed++
			continue
		}
		if err := coldD.addResult(p.Result); err != nil {
			return nil, err
		}
		if p.Status == core.StatusCached {
			continue
		}
		rc := float64(p.Result.Nodes) * float64(sim.Quick().WarmupCycles+int(p.Result.Cycles))
		jr.routerCycles += rc
		if e.l != nil {
			e.l.result(p.Result)
		}
	}
	jr.digest = coldD.sum()
	for _, warm := range warms {
		warmD := &digest{}
		for _, p := range warm {
			if p.Status != core.StatusCached || p.Result == nil {
				jr.failed++
				continue
			}
			if err := warmD.addResult(p.Result); err != nil {
				return nil, err
			}
		}
		if w := warmD.sum(); w != jr.digest {
			return nil, fmt.Errorf("warm results (digest %s) differ from the cold results (%s)", w, jr.digest)
		}
	}

	if e.l != nil {
		rep := prof.Report()
		e.l.engineReport(rep, sim.Quick().K*sim.Quick().K)
		size, err := dirSize(dir)
		if err != nil {
			return nil, err
		}
		hits += cache.Hits()
		lookups += cache.Hits() + cache.Misses()
		e.l.store(float64(hits), float64(lookups), size, cache.Len())
	}
	return jr, nil
}

// fleetSpec is the fleet workload's sweep: quick-mode DOR and TFAR with
// 1-4 VCs over a few loads, as explicit points.
func fleetSpec(e *env) *specv1.Spec {
	vcs, loads := []int{1, 2, 3, 4}, []float64{0.3, 0.7}
	if e.toy {
		vcs, loads = []int{1, 2}, []float64{0.5}
	}
	spec := &specv1.Spec{SchemaVersion: specv1.Version, Name: "perfbench-fleet"}
	for _, rt := range []string{"dor", "tfar"} {
		for _, v := range vcs {
			for _, l := range loads {
				c := sim.Quick()
				if e.toy {
					c.K, c.WarmupCycles, c.MeasureCycles = 4, 100, 300
				}
				c.Routing, c.VCs, c.Load = rt, v, l
				c.Seed = specv1.PointSeed(e.seed, len(spec.Points))
				c.Label = fmt.Sprintf("%s%d", rt, v)
				spec.Points = append(spec.Points, specv1.FromSim(c))
			}
		}
	}
	return spec
}

// fleet is a coordinator and two HTTP workers sharing one store directory,
// all on loopback httptest servers.
type fleet struct {
	dir     string
	caches  []*runner.Cache
	servers []*httptest.Server
	svc     *sweepsvc.Service
	client  *sweepsvc.Client
	log     *fleettrace.Log
	logT0   time.Time
	metrics *obs.FleetMetrics
	engine  *obs.EngineProfile // the workers' runs, traced only
	tp      *subscribed
}

// subscribed is the client's transport. It reports, once, that an event
// stream was accepted; the coordinator subscribes a stream before it
// answers, and the workers hold every run until this report, so no point
// settles before the client watches its sweep.
type subscribed struct {
	*http.Transport
	once  sync.Once
	ready chan struct{}
}

func (s *subscribed) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.Transport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && strings.HasSuffix(req.URL.Path, "/events") {
		s.once.Do(func() { close(s.ready) })
	}
	return resp, err
}

// execRecord is one simulation a worker executed, timed from outside.
type execRecord struct {
	key        string
	start, end time.Time
}

func newFleet(e *env, dir string, execs *[]execRecord, mu *sync.Mutex) (*fleet, error) {
	f := &fleet{dir: dir}
	open := func() (*runner.Cache, error) {
		c, err := runner.Open(dir)
		if err == nil {
			f.caches = append(f.caches, c)
		}
		return c, err
	}
	f.tp = &subscribed{Transport: http.DefaultTransport.(*http.Transport).Clone(), ready: make(chan struct{})}
	if e.l != nil {
		f.engine = &obs.EngineProfile{}
	}
	run := func(ctx context.Context, c sim.Config) (*stats.Result, error) {
		select {
		case <-f.tp.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.l == nil {
			return sim.RunContext(ctx, c)
		}
		c.EngineSink = f.engine
		t0 := time.Now()
		res, err := sim.RunContext(ctx, c)
		t1 := time.Now()
		mu.Lock()
		*execs = append(*execs, execRecord{runner.Key(c), t0, t1})
		mu.Unlock()
		return res, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		c, err := open()
		if err != nil {
			f.close()
			return nil, err
		}
		wk := &sweepsvc.Worker{Name: fmt.Sprintf("w%d", i+1), Cache: c, Run: run}
		srv := httptest.NewServer(wk.Handler())
		f.servers = append(f.servers, srv)
		urls = append(urls, srv.URL)
	}
	coord, err := open()
	if err != nil {
		f.close()
		return nil, err
	}
	cfg := sweepsvc.Config{Cache: coord, Fleet: urls}
	if e.l != nil {
		f.log, f.logT0 = fleettrace.NewLog(nil), time.Now()
		f.metrics = obs.NewFleetMetrics()
		cfg.Trace, cfg.Metrics = f.log, f.metrics
	}
	if f.svc, err = sweepsvc.New(cfg); err != nil {
		f.close()
		return nil, err
	}
	srv := httptest.NewServer(f.svc.APIHandler())
	f.servers = append(f.servers, srv)
	f.client = &sweepsvc.Client{Base: srv.URL, HTTP: &http.Client{Transport: f.tp}}
	return f, nil
}

// close stops the coordinator, then the servers, then the stores.
func (f *fleet) close() {
	if f.svc != nil {
		f.svc.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.tp.CloseIdleConnections()
	for _, c := range f.caches {
		c.Close()
	}
}

// sweep submits spec, waits for it to settle and fetches its results;
// onPoint, if set, sees each settled point's event.
func (f *fleet) sweep(ctx context.Context, l *layers, spec *specv1.Spec, onPoint func(*specv1.Event)) (string, []specv1.PointResult, error) {
	t0 := time.Now()
	st, err := f.client.Submit(ctx, spec)
	if err != nil {
		return "", nil, err
	}
	t1 := time.Now()
	err = f.client.Watch(ctx, st.ID, func(ev *specv1.Event) error {
		if ev.Type == "point" && onPoint != nil {
			onPoint(ev)
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	t2 := time.Now()
	res, err := f.client.Results(ctx, st.ID)
	if err != nil {
		return "", nil, err
	}
	if l != nil {
		l.mu.Lock()
		l.submitMs = append(l.submitMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		l.resultsMs = append(l.resultsMs, float64(time.Since(t2).Nanoseconds())/1e6)
		l.mu.Unlock()
	}
	return st.ID, res, nil
}

// fleetJob: the client submits the spec to an empty store (cold), then
// resubmits it warmReps times (warm, every point store-served).
func fleetJob(ctx context.Context, e *env) (*jobResult, error) {
	spec := fleetSpec(e)
	cfgs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	jr := &jobResult{}
	var execs []execRecord
	var mu sync.Mutex
	var f *fleet
	for spent := time.Duration(0); moreSetups(len(jr.setupS), spent); {
		if f != nil {
			// Stop the previous fleet, whose workers' health loops would
			// otherwise run during the next build.
			f.close()
			f = nil
			runtime.GC()
		}
		dir, err := e.emptyStore()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		nf, err := newFleet(e, dir, &execs, &mu)
		if err != nil {
			return nil, err
		}
		d0 := time.Since(t0)
		spent += d0
		jr.setupS = append(jr.setupS, d0.Seconds())
		f = nf
	}
	defer f.close()
	if n, err := resolveShards(cfgs[0]); err == nil {
		e.shards.note(topoClass(cfgs[0])+" (fleet worker)", n)
	} else {
		return nil, err
	}

	n := len(spec.Points)
	cs := e.tr.begin("cold", e.parent)
	pointSpan := make(map[int]int)
	t0 := time.Now()
	// Every cold point settles after the client subscribed (see
	// subscribed), so the client sees all n.
	coldID, cold, err := f.sweep(ctx, e.l, spec, func(ev *specv1.Event) {
		now := time.Now()
		jr.pointS = append(jr.pointS, now.Sub(t0).Seconds())
		pointSpan[ev.Point.Index] = e.tr.record("point", cs, t0, now, map[string]any{"index": ev.Point.Index, "status": string(ev.Point.Status)})
	})
	if err != nil {
		return nil, err
	}
	jr.coldS, jr.coldPoints = time.Since(t0).Seconds(), n
	e.tr.end(cs, nil)
	if len(jr.pointS) != n {
		jr.problems = append(jr.problems, fmt.Sprintf("saw %d of %d cold points settle", len(jr.pointS), n))
	}

	runtime.GC() // the cold phase's garbage, before the warm phase is timed
	const warmReps = 20
	ws := e.tr.begin("warm", e.parent)
	var warms [][]specv1.PointResult
	ac := newAllocCounter()
	var objs0 uint64
	if e.l != nil {
		objs0, _ = ac.read()
	}
	t0 = time.Now()
	for i := 0; i < warmReps; i++ {
		ti := time.Now()
		_, w, err := f.sweep(ctx, e.l, spec, nil)
		if err != nil {
			return nil, err
		}
		jr.warmRates = append(jr.warmRates, float64(n)/time.Since(ti).Seconds())
		warms = append(warms, w)
	}
	jr.warmS, jr.warmPoints = time.Since(t0).Seconds(), warmReps*n
	if e.l != nil {
		objs1, _ := ac.read()
		e.l.mu.Lock()
		e.l.warmAllocs += float64(objs1 - objs0)
		e.l.warmPoints += float64(jr.warmPoints)
		e.l.mu.Unlock()
	}
	e.tr.end(ws, nil)
	jr.attempted = (1 + warmReps) * n

	if len(cold) != n {
		return nil, fmt.Errorf("cold sweep returned %d results, want %d", len(cold), n)
	}
	d := &digest{}
	routers := 0
	for i, p := range cold {
		if p.Status != specv1.StatusDone {
			jr.failed++
			continue
		}
		b, err := canonicalRaw(p.Result)
		if err != nil {
			return nil, err
		}
		d.add(b)
		res, err := specv1.DecodeResult(p.Result)
		if err != nil {
			return nil, err
		}
		routers = res.Nodes
		rc := float64(res.Nodes) * float64(cfgs[i].WarmupCycles+cfgs[i].MeasureCycles)
		jr.routerCycles += rc
		if e.l != nil {
			e.l.result(res)
		}
	}
	jr.digest = d.sum()
	for _, w := range warms {
		if len(w) != n {
			return nil, fmt.Errorf("warm sweep returned %d results, want %d", len(w), n)
		}
		for i, p := range w {
			if p.Status != specv1.StatusCached {
				jr.failed++
				continue
			}
			if string(p.Result) != string(cold[i].Result) {
				return nil, fmt.Errorf("warm result bytes of point %d differ from the cold bytes", i)
			}
		}
	}

	if e.l != nil {
		e.l.engineReport(f.engine.Report(), routers)
		if err := fleetLayers(e, f, coldID, cfgs, cold, execs, pointSpan); err != nil {
			return nil, err
		}
	}
	return jr, nil
}

// fleetLayers folds the traced fleet job's scheduler, worker and store
// numbers: from the coordinator's span log and metrics, the workers'
// timed executions and the benchmark's own store calls.
func fleetLayers(e *env, f *fleet, coldID string, cfgs []sim.Config, cold []specv1.PointResult, execs []execRecord, pointSpan map[int]int) error {
	keyIdx := make(map[string]int, len(cfgs))
	for i, c := range cfgs {
		keyIdx[runner.Key(c)] = i
	}
	exec := make(map[int]execRecord)
	for _, x := range execs {
		i, ok := keyIdx[x.key]
		if !ok {
			return fmt.Errorf("worker executed a configuration outside the spec")
		}
		exec[i] = x
	}
	queued := make(map[int]int64)
	l := e.l
	var wait, overhead, execS []float64
	recs := f.log.Records()
	for _, r := range recs {
		if r.Sweep == coldID && r.Kind == "point" && r.Terminal() {
			queued[r.Point] = r.TS - r.DurUS
		}
	}
	for _, r := range recs {
		if r.Sweep != coldID || r.Kind != "attempt" || r.State != "done" {
			continue
		}
		start := r.TS - r.DurUS
		wait = append(wait, float64(start-queued[r.Point])/1e3)
		as := e.tr.record("attempt", pointSpan[r.Point], f.logT0.Add(time.Duration(start)*time.Microsecond),
			f.logT0.Add(time.Duration(r.TS)*time.Microsecond), map[string]any{"worker": r.Worker, "point": r.Point})
		if x, ok := exec[r.Point]; ok {
			d := x.end.Sub(x.start)
			execS = append(execS, d.Seconds())
			overhead = append(overhead, float64(time.Duration(r.DurUS)*time.Microsecond-d)/1e6)
			e.tr.record("worker.exec", as, x.start, x.end, nil)
		}
	}
	var retries float64
	for _, n := range f.metrics.Retries() {
		retries += float64(n)
	}
	l.mu.Lock()
	l.queueWaitMs = append(l.queueWaitMs, wait...)
	l.overheadMs = append(l.overheadMs, overhead...)
	l.execS = append(l.execS, execS...)
	l.retries += retries
	l.steals += float64(f.metrics.Steals())
	l.mu.Unlock()

	coord := f.caches[len(f.caches)-1]
	scratchDir, err := e.freshDir()
	if err != nil {
		return err
	}
	scratch, err := runner.Open(scratchDir)
	if err != nil {
		return err
	}
	defer scratch.Close()
	timeStore(l, coord, cfgs, func(key string, i int) {
		scratch.PutRaw(key, cfgs[i].Label, cfgs[i].Load, cold[i].Result)
	})
	size, err := dirSize(f.dir)
	if err != nil {
		return err
	}
	done, cached, _ := f.metrics.Settled()
	l.store(float64(cached), float64(done+cached), size, coord.Len())
	return nil
}

// probeRun steps one representative configuration with the split loop, for
// the loop's own metrics; the workload's runs give the engine telemetry.
func probeRun(e *env, c sim.Config) error {
	if !splitStepOK(c) {
		return fmt.Errorf("probe configuration not steppable by the split loop")
	}
	t0 := time.Now()
	r, err := sim.NewRunner(c)
	if err != nil {
		return err
	}
	e.l.mu.Lock()
	e.l.setupMs = append(e.l.setupMs, float64(time.Since(t0).Nanoseconds())/1e6)
	e.l.mu.Unlock()
	ps := e.tr.begin("probe.run", 0)
	newStepper(r, e.l, e.tr, ps).run(c.WarmupCycles + c.MeasureCycles)
	r.Finish()
	e.tr.end(ps, map[string]any{"routers": r.Topo.Nodes(), "shards": r.Net.Shards()})
	return nil
}

// workDir makes the run's scratch directory under .bench_build in root.
func workDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "work-")
}
