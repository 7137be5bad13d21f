package network

import (
	"testing"

	"flexsim/internal/rng"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// saturatedNet builds a 1-shard 8-ary 2-cube, queues far more traffic than
// it can carry and steps it until headers block, so every later Step
// re-routes blocked headers through allocate.
func saturatedNet(t *testing.T, alg routing.Algorithm, faults bool) *Network {
	t.Helper()
	topo := topology.MustNew(8, 2, true)
	n, err := New(Params{Topo: topo, VCs: 1, BufferDepth: 2, Routing: alg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if faults {
		n.SetLinkDown(chanBetween(t, topo, 0, 1))
		n.SetLinkDown(chanBetween(t, topo, 9, 17))
	}
	r := rng.New(3)
	for i := 0; i < 16; i++ {
		for s := 0; s < topo.Nodes(); s++ {
			if d := r.Intn(topo.Nodes()); d != s {
				n.Inject(s, d, 8)
			}
		}
	}
	stepN(n, 300)
	if n.BlockedCount() == 0 {
		t.Fatal("warm-up left no blocked headers; the measurement would skip routing")
	}
	return n
}

// TestStepAllocs pins the steady-state allocation count of a 1-shard Step
// through the three routing paths of allocate: plain TFAR, misrouting with
// a deroute budget (the Deroutes branch) and active faults (the
// faultCandidates branch). A routing.Request that escapes to the heap costs
// one allocation per routed header per cycle and fails this test.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	cases := []struct {
		name   string
		alg    routing.Algorithm
		faults bool
	}{
		{"tfar", routing.TFAR{}, false},
		{"misroute", routing.MisroutingFAR{MaxDeroutes: 2}, false},
		{"faults", routing.TFAR{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := saturatedNet(t, c.alg, c.faults)
			if got := testing.AllocsPerRun(100, n.Step); got != 0 {
				t.Errorf("Step allocates %.1f times per cycle, want 0", got)
			}
			if n.BlockedCount() == 0 {
				t.Error("no blocked headers after the measurement; allocate was not exercised")
			}
		})
	}
}
