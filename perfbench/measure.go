package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/stats"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, in per mille, highest
// first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest percentile of the ladder that leaves at
// least minBeyond of n samples above it, and returns it (in percent) with
// that sample count. When no percentile qualifies it falls back to the
// median and reports ok=false.
func tailPercentile(n int) (pct float64, beyond int, ok bool) {
	for _, pm := range tailLadder {
		if b := n - (n*pm+999)/1000; b >= minBeyond {
			return float64(pm) / 10, b, true
		}
	}
	return 50, n - (n*500+999)/1000, false
}

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a timing distribution reported as a median and a tail.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
	Beyond  int
}

func summarize(xs []float64) summary {
	pct, beyond, _ := tailPercentile(len(xs))
	return summary{N: len(xs), P50: median(xs), Tail: quantile(xs, pct/100), TailPct: pct, Beyond: beyond}
}

// histSummary is summarize for a stats.Histogram of nanoseconds, in
// microseconds.
func histSummary(h *stats.Histogram) summary {
	n := int(h.Count())
	pct, beyond, _ := tailPercentile(n)
	return summary{N: n, P50: float64(h.Quantile(0.5)) / 1e3, Tail: float64(h.Quantile(pct/100)) / 1e3, TailPct: pct, Beyond: beyond}
}

// canonicalResult encodes a result with its wall-clock detector timing
// histograms zeroed, so the bytes depend only on the simulation.
func canonicalResult(res *stats.Result) ([]byte, error) {
	r := *res
	r.DetectBuildTime = stats.Histogram{}
	r.DetectAnalyzeTime = stats.Histogram{}
	return json.Marshal(&r)
}

// canonicalRaw is canonicalResult for a result in its wire encoding.
func canonicalRaw(raw json.RawMessage) ([]byte, error) {
	res, err := specv1.DecodeResult(raw)
	if err != nil {
		return nil, err
	}
	return canonicalResult(res)
}

// digest is an order-independent fingerprint of a multiset of outputs:
// parallel sweeps settle points in any order, so items are hashed, sorted
// and hashed again.
type digest struct {
	mu    sync.Mutex
	items []string
}

func (d *digest) add(b []byte) {
	h := sha256.Sum256(b)
	d.mu.Lock()
	d.items = append(d.items, hex.EncodeToString(h[:]))
	d.mu.Unlock()
}

func (d *digest) addResult(res *stats.Result) error {
	b, err := canonicalResult(res)
	if err != nil {
		return err
	}
	d.add(b)
	return nil
}

func (d *digest) sum() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := append([]string(nil), d.items...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:12])
}

// span is one traced interval at a layer boundary.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_us"`
	Dur    int64          `json:"dur_us"`
	Args   map[string]any `json:"args,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Microseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0).Microseconds() - s.Start
	s.Args = args
}

// record adds a span whose interval is already known and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Microseconds(), Dur: end.Sub(start).Microseconds(), Args: args})
	return id
}

// layerTime is the total and self time of every span with one name. Self
// time is a span's duration minus the union of its children's intervals.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTime)
	var order []string
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Count++
		lt.Total += time.Duration(s.Dur) * time.Microsecond
		lt.Self += time.Duration(s.Dur-covered(s, children[s.ID])) * time.Microsecond
	}
	out := make([]layerTime, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.Start+k.Dur, parent.Start+parent.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// procSample is a reading of the process-wide counters the traced run
// differences: CPU time and the runtime's GC CPU estimate.
type procSample struct {
	wall            time.Time
	cpu             time.Duration
	gcCPU, totalCPU float64
}

var procMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetrics))
	for i, n := range procMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}

// allocCounter reads the heap allocation totals without stopping the world,
// cheaply enough to bracket a single engine step.
type allocCounter struct{ s [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = "/gc/heap/allocs:objects"
	c.s[1].Name = "/gc/heap/allocs:bytes"
	return c
}

func (c *allocCounter) read() (objs, bytes uint64) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64(), c.s[1].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}
