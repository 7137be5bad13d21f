package network

import (
	"runtime"
	"testing"

	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

func newShardedNet(t *testing.T, shards int) *Network {
	t.Helper()
	topo, err := topology.New(4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Params{Topo: topo, VCs: 2, BufferDepth: 2, Routing: routing.DOR{}, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestResolveShards(t *testing.T) {
	t.Setenv(shardsEnv, "") // CI forces the env var; empty must read as unset
	cases := []struct {
		req, nodes, want int
	}{
		{1, 16, 1},
		{4, 16, 4},
		{0, 16, 1},    // unset, no env
		{100, 16, 16}, // clamped to nodes
	}
	for _, c := range cases {
		if got := resolveShards(c.req, c.nodes); got != c.want {
			t.Errorf("resolveShards(%d, %d) = %d, want %d", c.req, c.nodes, got, c.want)
		}
	}

	// Auto: networks below 2*minRoutersPerShard never shard, whatever the
	// core count; the 32-ary 3-cube takes one shard per core up to
	// nodes/minRoutersPerShard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for _, nodes := range []int{64, 256} { // 8-ary and 16-ary 2-cube
			if got := resolveShards(AutoShards, nodes); got != 1 {
				t.Errorf("GOMAXPROCS=%d: resolveShards(auto, %d) = %d, want 1", procs, nodes, got)
			}
		}
		want := min(procs, 32768/minRoutersPerShard)
		if got := resolveShards(-5, 32768); got != want { // any negative = auto
			t.Errorf("GOMAXPROCS=%d: resolveShards(auto, 32768) = %d, want %d", procs, got, want)
		}
	}

	t.Setenv(shardsEnv, "6")
	if got := resolveShards(0, 16); got != 6 {
		t.Errorf("resolveShards(0, 16) with %s=6 = %d, want 6", shardsEnv, got)
	}
	if got := resolveShards(2, 16); got != 2 {
		t.Errorf("explicit Shards must beat the environment, got %d", got)
	}
	t.Setenv(shardsEnv, "auto")
	if got := resolveShards(0, 64); got != 1 {
		t.Errorf("resolveShards(0, 64) with %s=auto = %d, want 1", shardsEnv, got)
	}
	if got, want := resolveShards(0, 32768), AutoShardCount(32768); got != want {
		t.Errorf("resolveShards(0, 32768) with %s=auto = %d, want %d", shardsEnv, got, want)
	}
	t.Setenv(shardsEnv, "nonsense")
	if got := resolveShards(0, 16); got != 1 {
		t.Errorf("resolveShards must ignore an unparsable %s, got %d", shardsEnv, got)
	}
}

// TestShardPartitionCoversAllNodes checks the contiguous node-range
// partition: every node and every channel (by source node) maps to exactly
// one shard, ranges are ascending and cover [0, nodes).
func TestShardPartitionCoversAllNodes(t *testing.T) {
	n := newShardedNet(t, 5)
	defer n.Close()
	if n.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", n.Shards())
	}
	prevHi := 0
	for i, w := range n.workers {
		if w.nodeLo != prevHi {
			t.Errorf("shard %d starts at %d, want %d (contiguous)", i, w.nodeLo, prevHi)
		}
		if w.nodeHi <= w.nodeLo {
			t.Errorf("shard %d empty: [%d, %d)", i, w.nodeLo, w.nodeHi)
		}
		for node := w.nodeLo; node < w.nodeHi; node++ {
			if n.shardOfNode[node] != int32(i) {
				t.Errorf("shardOfNode[%d] = %d, want %d", node, n.shardOfNode[node], i)
			}
		}
		prevHi = w.nodeHi
	}
	if prevHi != n.topo.Nodes() {
		t.Errorf("partition covers [0, %d), want [0, %d)", prevHi, n.topo.Nodes())
	}
	for ch := 0; ch < n.topo.NumChannels(); ch++ {
		want := n.shardOfNode[n.topo.ChannelSrc(topology.ChannelID(ch))]
		if n.shardOfCh[ch] != want {
			t.Errorf("shardOfCh[%d] = %d, want %d (source-node shard)", ch, n.shardOfCh[ch], want)
		}
	}
}

// TestCloseIdempotentAndStepAfterClose pins the pool lifecycle: Close may
// be called repeatedly, and a network stepped after Close falls back to the
// sequential engine instead of deadlocking or panicking.
func TestCloseIdempotentAndStepAfterClose(t *testing.T) {
	n := newShardedNet(t, 4)
	n.Inject(0, 5, 4)
	n.Step()
	n.Close()
	n.Close()
	for i := 0; i < 20; i++ {
		n.Step() // sequential fallback must still drain the message
	}
	if n.DeliveredCount != 1 {
		t.Errorf("DeliveredCount = %d after stepping past Close, want 1", n.DeliveredCount)
	}
	if n.Close(); false {
		t.Fatal("unreachable")
	}
}

// TestActiveMessagesSorted pins the stable-iteration satellite: the slice
// is ID-ascending whatever the internal active order, and the view tracks
// membership changes.
func TestActiveMessagesSorted(t *testing.T) {
	n := newShardedNet(t, 1)
	// Inject from high node ids down so creation order differs from any
	// node-ordered internal layout.
	n.Inject(9, 2, 4)
	n.Inject(4, 8, 4)
	n.Inject(12, 1, 4)
	n.Step()
	ms := n.ActiveMessages()
	if len(ms) != 3 {
		t.Fatalf("got %d active messages, want 3", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].ID >= ms[i].ID {
			t.Fatalf("ActiveMessages not ID-sorted: %d before %d", ms[i-1].ID, ms[i].ID)
		}
	}
	for i := 0; i < 40; i++ {
		n.Step()
	}
	if got := len(n.ActiveMessages()); got != 0 {
		t.Errorf("ActiveMessages after drain = %d messages, want 0", got)
	}
}
