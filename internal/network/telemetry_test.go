package network

import (
	"testing"

	"flexsim/internal/trace"
)

// driveTelemetry injects a deterministic all-to-far pattern and steps the
// network, returning the attached stats.
func driveTelemetry(t *testing.T, shards, cycles int) (*Network, *EngineStats) {
	t.Helper()
	n := newShardedNet(t, shards)
	t.Cleanup(n.Close)
	es := &EngineStats{}
	n.SetEngineStats(es)
	nodes := n.Topology().Nodes()
	for c := 0; c < cycles; c++ {
		if c%4 == 0 {
			for src := 0; src < nodes; src++ {
				n.Inject(src, (src+nodes/2)%nodes, 8)
			}
		}
		n.Step()
	}
	return n, es
}

func TestEngineStatsParallel(t *testing.T) {
	const shards, cycles = 4, 200
	_, es := driveTelemetry(t, shards, cycles)
	if es.Shards != shards {
		t.Fatalf("Shards = %d, want %d", es.Shards, shards)
	}
	if es.Cycles != cycles {
		t.Fatalf("Cycles = %d, want %d", es.Cycles, cycles)
	}
	for s := 0; s < shards; s++ {
		if es.ShardBusyNs(s) <= 0 {
			t.Errorf("shard %d accumulated no kernel time", s)
		}
	}
	for ph := 0; ph < EnginePhases; ph++ {
		if es.WallNs[ph] <= 0 {
			t.Errorf("phase %q accumulated no wall time", EnginePhaseNames[ph])
		}
	}
	// Worker durations differ, so slowest > median over 200 cycles.
	if es.TotalStallNs() <= 0 {
		t.Error("expected nonzero barrier stall on a 4-shard run")
	}
	if es.TotalIdleNs() < es.TotalStallNs() {
		t.Error("idle time must dominate stall (idle sums every worker's wait)")
	}
	// Uniform all-to-far traffic on 4 shards must cross shard boundaries.
	if es.CrossShardTransfers() == 0 {
		t.Error("expected cross-shard mailbox traffic")
	}
	var grants int64
	for s := 0; s < shards; s++ {
		if d := es.Req(s, s); d != 0 {
			t.Errorf("ReqTransfers diagonal [%d][%d] = %d, want 0 (local requests bypass mailboxes)", s, s, d)
		}
		grants += es.Grant(s, s)
	}
	if grants == 0 {
		t.Error("every grant rides the mailbox: same-shard grant count must be nonzero")
	}
}

func TestEngineStatsSequential(t *testing.T) {
	_, es := driveTelemetry(t, 1, 100)
	if es.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", es.Shards)
	}
	if es.ShardBusyNs(0) <= 0 {
		t.Error("direct mode must attribute kernel time to shard 0")
	}
	if es.TotalStallNs() != 0 || es.TotalIdleNs() != 0 {
		t.Error("direct mode has no barriers: stall and idle must be zero")
	}
	if es.CrossShardTransfers() != 0 {
		t.Error("direct mode has no mailboxes: cross-shard traffic must be zero")
	}
	if es.MsgEffects != 0 || es.NodeEffects != 0 {
		t.Error("direct mode applies effects inline: buffered-effect counts must be zero")
	}
}

// TestEngineStatsCountsDeterministic pins the determinism contract: every
// count (matrices, effect totals, cycles) is exact and identical across
// identical runs — only the nanosecond fields vary.
func TestEngineStatsCountsDeterministic(t *testing.T) {
	run := func() *EngineStats {
		n := newShardedNet(t, 4)
		defer n.Close()
		// A tracer forces effect buffering so MsgEffects/NodeEffects are
		// exercised, not trivially zero.
		var ring trace.Ring
		n.p.Tracer = &ring
		es := &EngineStats{}
		n.SetEngineStats(es)
		nodes := n.Topology().Nodes()
		for c := 0; c < 150; c++ {
			if c%3 == 0 {
				for src := 0; src < nodes; src++ {
					n.Inject(src, (src+5)%nodes, 6)
				}
			}
			n.Step()
		}
		return es
	}
	a, b := run(), run()
	if a.Routers != 16 {
		t.Errorf("Routers = %d, want the 16 nodes of the network", a.Routers)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("Cycles diverged: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.MsgEffects != b.MsgEffects || a.NodeEffects != b.NodeEffects {
		t.Errorf("effect counts diverged: (%d,%d) vs (%d,%d)",
			a.MsgEffects, a.NodeEffects, b.MsgEffects, b.NodeEffects)
	}
	if a.MsgEffects == 0 {
		t.Error("tracer attached: MsgEffects must be nonzero")
	}
	for i := range a.ReqTransfers {
		if a.ReqTransfers[i] != b.ReqTransfers[i] {
			t.Fatalf("ReqTransfers[%d] diverged: %d vs %d", i, a.ReqTransfers[i], b.ReqTransfers[i])
		}
	}
	for i := range a.GrantTransfers {
		if a.GrantTransfers[i] != b.GrantTransfers[i] {
			t.Fatalf("GrantTransfers[%d] diverged: %d vs %d", i, a.GrantTransfers[i], b.GrantTransfers[i])
		}
	}
}

// TestEngineStatsResultInvariance: attaching telemetry must not change
// simulation results — same deliveries, same flit counts, detached run
// as the baseline.
func TestEngineStatsResultInvariance(t *testing.T) {
	run := func(attach bool) (int64, int64) {
		n := newShardedNet(t, 3)
		defer n.Close()
		if attach {
			n.SetEngineStats(&EngineStats{})
		}
		nodes := n.Topology().Nodes()
		for c := 0; c < 300; c++ {
			if c%2 == 0 {
				for src := 0; src < nodes; src += 2 {
					n.Inject(src, (src+7)%nodes, 8)
				}
			}
			n.Step()
		}
		return n.DeliveredCount, n.DeliveredFlits
	}
	d0, f0 := run(false)
	d1, f1 := run(true)
	if d0 != d1 || f0 != f1 {
		t.Errorf("telemetry changed results: delivered %d/%d flits %d/%d", d0, d1, f0, f1)
	}
	if d0 == 0 {
		t.Error("baseline run delivered nothing; test is vacuous")
	}
}
