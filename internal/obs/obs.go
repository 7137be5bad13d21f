// Package obs is the simulator's run-time observability layer. The paper's
// analysis is about *when and how* a network degrades — deadlock frequency,
// knot composition, blocked-message dynamics — yet end-of-run aggregates
// flatten all of it into single numbers. This package turns every run into
// inspectable evidence, in three pillars:
//
//   - Interval metrics: a Recorder samples occupancy/backlog/deadlock
//     gauges every N cycles into a compact columnar buffer, exported as
//     CSV or JSONL (one row per sample, tagged with the run's label, seed
//     and load), so "% blocked vs. time leading into a deadlock" becomes a
//     plottable series.
//
//   - Deadlock incident post-mortems: an IncidentLog implements
//     detect.Observer and captures one Incident record per detected
//     deadlock — cycle, set sizes, knot cycle density, victim, recovery
//     drain duration, the last K trace events and an optional DOT snapshot
//     of the knot subgraph — written as JSONL.
//
//   - Live introspection: Live holds the latest sample in atomics, and
//     Server exposes it as Prometheus-style text at /metrics (plus
//     /healthz and a JSON sweep-progress view for long charsweep runs).
//
// Every hook into the cycle loop is a nil-guarded single branch, so the
// allocation-free detection hot path keeps 0 allocs/op when observability
// is off.
package obs

// Gauges is one interval sample of the simulation's observable state.
// Counter-like fields (Delivered, Recovered, Generated, Deadlocks,
// Invocations, Gated) are cumulative; the rest are instantaneous.
type Gauges struct {
	// Cycle is the sample's simulation cycle.
	Cycle int64
	// Active, Blocked and Queued count messages holding network
	// resources, blocked at the header, and waiting in source queues.
	Active  int
	Blocked int
	Queued  int
	// Flits counts flits resident in edge buffers.
	Flits int64
	// Delivered/Recovered/Generated are monotonic message counters since
	// the start of the run (warmup included).
	Delivered int64
	Recovered int64
	Generated int64
	// Deadlocks, Invocations and Gated mirror the detector's aggregates
	// (reset at the warmup/measurement boundary); Gated/Invocations is
	// the change-gate hit rate.
	Deadlocks   int64
	Invocations int64
	Gated       int64
	// FaultsActive counts currently failed resources (downed links,
	// locked VCs, dead nodes); MsgsKilled is the monotonic count of
	// messages fault injection removed from the network.
	FaultsActive int
	MsgsKilled   int64
	// Engine telemetry (zero unless engine profiling is enabled — see
	// sim.Observe.ProfileEngine). EngineBusyNs is cumulative kernel wall
	// time across shards and phases and EngineStallNs the cumulative
	// slowest-minus-median barrier stall; both are wall-clock measurements
	// and therefore nondeterministic. EngineCrossShard is the cumulative
	// cross-shard mailbox transfer count — exact and deterministic.
	EngineBusyNs     int64
	EngineStallNs    int64
	EngineCrossShard int64
}
