// Command perfbench is the repository's end-to-end benchmark. It runs the
// simulator's public entry points on four workloads, checks their outputs
// and prints end-to-end metrics (tracing off) or per-layer metrics (traced
// run, --trace 1). See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//	bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when an
// output check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose result digests are committed.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// committedDigests maps "<scale>/<workload>" to the digest of the
// workload's results at defaultSeed.
func committedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds int
	traced  bool
	toy     bool
	work    string // scratch directory
}

// report is one workload run's outcome.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Context   map[string]any     `json:"context"`

	tr *tracer
}

// runWorkload runs jobs of w until the next one would overrun the time
// budget. Untraced, every job is measured; traced, the first job runs
// untraced as the reference for the digest check and the tracing overhead,
// and the rest are traced.
func runWorkload(ctx context.Context, w *workload, o options) (*report, error) {
	e := &env{seed: o.seed, toy: o.toy, work: o.work}
	var l *layers
	var tr *tracer
	if o.traced {
		l, tr = newLayers(), newTracer()
	}
	var plain, traced []*jobResult
	var durs []float64
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for {
		useTrace := o.traced && len(plain) > 0
		var before procSample
		e.l, e.tr, e.parent = nil, nil, 0
		if useTrace {
			e.l, e.tr = l, tr
			e.parent = tr.begin("job", 0)
			before = readProc()
		}
		t0 := time.Now()
		jr, err := w.job(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		if useTrace {
			l.proc(before, readProc())
			tr.end(e.parent, nil)
			traced = append(traced, jr)
		} else {
			plain = append(plain, jr)
		}
		missing := o.traced && len(traced) == 0
		next := time.Duration(median(durs) * float64(time.Second))
		if !missing && time.Since(start)+next > budget {
			break
		}
	}

	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.traced, Correct: true, tr: tr}
	all := append(append([]*jobResult(nil), plain...), traced...)
	rep.Digest = all[0].digest
	for _, j := range all {
		rep.Attempted += j.attempted
		rep.Failed += j.failed
		for _, p := range j.problems {
			rep.problem("%s", p)
		}
		if j.digest != rep.Digest {
			rep.problem("result digest differs between jobs (%s vs %s)", j.digest, rep.Digest)
		}
	}
	if o.traced && len(traced) > 0 && traced[0].digest != plain[0].digest {
		rep.problem("traced run's result digest %s differs from the untraced run's %s", traced[0].digest, plain[0].digest)
	}
	if o.seed == defaultSeed {
		committed, err := committedDigests()
		if err != nil {
			return nil, err
		}
		key := scaleName(o.toy) + "/" + w.name
		switch want := committed[key]; {
		case want == "":
			rep.problem("no committed digest for %s", key)
		case want != rep.Digest:
			rep.problem("result digest %s differs from the committed %s", rep.Digest, want)
		}
	}

	m, pts := endToEndMetrics(plain)
	rep.Context = map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  gomaxprocs(),
		"go_version":  runtime.Version(),
		"cpu_model":   cpuModel(),
		"shards":      e.shards.m,
		"seed":        o.seed,
		"jobs":        len(all),
		"job_wall_s":  jobWalls(all),
		"failed_frac": ratio(float64(rep.Failed), float64(rep.Attempted)),
		"point_s_tail": map[string]any{
			"percentile": pts.TailPct, "samples": pts.N, "beyond": pts.Beyond,
		},
		"trace_overhead": "n/a (tracing off; run with --trace 1)",
	}
	rep.Metrics = m
	if o.traced {
		e.l, e.tr, e.parent = l, tr, 0
		if w.probe != nil {
			if err := probeRun(e, w.probe(e)); err != nil {
				return nil, fmt.Errorf("%s: probe: %w", w.name, err)
			}
		}
		rep.Metrics = l.metrics()
		tm, _ := endToEndMetrics(traced)
		rep.Context["trace_overhead"] = tm["wall_s"]/m["wall_s"] - 1
	}
	return rep, nil
}

// jobWalls lists each job's wall_s, rounded for the report.
func jobWalls(jobs []*jobResult) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = math.Round(j.wallS()*1e4) / 1e4
	}
	return out
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func scaleName(toy bool) string {
	if toy {
		return "toy"
	}
	return "full"
}

// endToEndMetrics reduces jobs to the end-to-end metrics: medians over
// jobs; point latencies and warm request rates pooled across jobs.
func endToEndMetrics(jobs []*jobResult) (map[string]float64, summary) {
	var wall, pps, warm, rcps, setup, pts []float64
	for _, j := range jobs {
		wall = append(wall, j.wallS())
		pps = append(pps, ratio(float64(j.coldPoints), j.coldS))
		warm = append(warm, j.warmRates...)
		rcps = append(rcps, ratio(j.routerCycles, j.wallS()))
		setup = append(setup, setupFigure(j.setupS)+setupFigure(j.warmSetupS))
		pts = append(pts, j.pointS...)
	}
	ps := summarize(pts)
	return map[string]float64{
		"wall_s":              median(wall),
		"points_per_s":        median(pps),
		"warm_points_per_s":   median(warm),
		"router_cycles_per_s": median(rcps),
		"point_s_p50":         ps.P50,
		"point_s_tail":        ps.Tail,
		"setup_s":             median(setup),
		"peak_heap_mb":        peakRSSMB(),
	}, ps
}

// defs returns the metric definitions a report carries.
func (r *report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable report.
func (r *report) print(w io.Writer, why string) {
	mode := "tracing off"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %v jobs)\n", r.Workload, r.Seed, mode, r.Context["jobs"])
	fmt.Fprintf(w, "why: %s\n", why)
	keys := make([]string, 0, len(r.Context))
	for k := range r.Context {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "context %-15s %v\n", k, r.Context[k])
	}
	for _, d := range r.defs() {
		fmt.Fprintf(w, "metric  %-36s %14.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if !r.Trace {
		fmt.Fprintf(w, "metric  %-36s %14.6g frac (%d of %d points)\n", "failed_frac",
			ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	}
	if r.tr != nil {
		fmt.Fprintln(w, "span self time (total across spans):")
		for _, lt := range r.tr.selfTimes() {
			fmt.Fprintf(w, "  %-18s n=%-6d total %-12v self %v\n", lt.Name, lt.Count,
				lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(w, "digest %s\n", r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

// resultLine is the final JSON line.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]resultMetricJS `json:"metrics"`
}

type resultMetricJS struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
			return 2
		}
		if err := compare(stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement time per workload")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", "", "append each workload's report as a JSON line to this file (for compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if *name == "all" {
		var pass []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				pass = append(pass, "--"+f.Name, f.Value.String())
			}
		})
		return runAll(pass, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := workDir(root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, work: work}
	rep, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, w.why)
	if o.traced {
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-s%d.jsonl", w.name, o.seed))
		if err := writeFile(path, rep.tr.writeJSONL); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if *out != "" {
		if err := appendJSONLine(*out, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]resultMetricJS)}
	for _, d := range rep.defs() {
		line.Metrics[d.Name] = resultMetricJS{rep.Metrics[d.Name], d.Unit}
	}
	return printLine(stdout, stderr, line)
}

// printLine writes the final JSON line and returns the exit code.
func printLine(stdout, stderr io.Writer, line resultLine) int {
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, with the other
// flags passed through, so that each peak_heap_mb is one workload's peak. It
// merges the children's result lines, prefixing each metric with its
// workload.
func runAll(pass []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: make(map[string]resultMetricJS)}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, append([]string{"--workload", w.name}, pass...)...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		out := strings.TrimRight(buf.String(), "\n")
		i := strings.LastIndexByte(out, '\n')
		var line resultLine
		if err := json.Unmarshal([]byte(out[i+1:]), &line); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: no result line (%v)\n", w.name, runErr)
			return 1
		}
		fmt.Fprintln(stdout, out[:max(i, 0)])
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for k, m := range line.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	return printLine(stdout, stderr, all)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
