package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flexsim/internal/network"
)

// fakeEngineStats builds an EngineStats with recognizable values: shard s
// spends (s+1)*base ns per phase, every (src,dst) pair moves src*10+dst
// requests and grants.
func fakeEngineStats(shards int, base int64) *network.EngineStats {
	es := &network.EngineStats{}
	es.SizeTo(shards)
	es.Cycles = 100
	for s := 0; s < shards; s++ {
		for ph := 0; ph < network.EnginePhases; ph++ {
			es.PhaseNs[s][ph] = int64(s+1) * base
		}
	}
	for ph := 0; ph < network.EnginePhases; ph++ {
		es.WallNs[ph] = int64(shards) * base // slowest shard
		es.StallNs[ph] = base / 2
		es.IdleNs[ph] = base
	}
	for src := 0; src < shards; src++ {
		for dst := 0; dst < shards; dst++ {
			if src != dst {
				es.ReqTransfers[src*shards+dst] = int64(src*10 + dst)
			}
			es.GrantTransfers[src*shards+dst] = int64(src*10 + dst + 1)
		}
	}
	es.MsgEffects, es.NodeEffects, es.MergeNs = 500, 300, 7000
	return es
}

func TestEngineProfileReport(t *testing.T) {
	var p EngineProfile
	p.EngineRun(RunMeta{Label: "a"}, fakeEngineStats(4, 1000))
	p.EngineRun(RunMeta{Label: "b"}, fakeEngineStats(4, 1000))
	r := p.Report()
	if r.Runs != 2 || r.Shards != 4 || r.Cycles != 200 {
		t.Fatalf("header = %d runs, %d shards, %d cycles", r.Runs, r.Shards, r.Cycles)
	}
	if len(r.Phases) != network.EnginePhases {
		t.Fatalf("got %d phase rows", len(r.Phases))
	}
	// Per phase per run: (1+2+3+4)*1000 busy; two runs.
	if r.Phases[0].BusyNs != 20000 {
		t.Errorf("phase 0 busy = %d, want 20000", r.Phases[0].BusyNs)
	}
	if r.Phases[0].Phase != network.EnginePhaseNames[0] {
		t.Errorf("phase 0 name = %q", r.Phases[0].Phase)
	}
	// Idle fraction: idle 2000 over shards(4) × wall(8000).
	if got := r.Phases[0].IdleFraction; got < 0.06 || got > 0.07 {
		t.Errorf("phase 0 idle fraction = %g, want 2000/32000", got)
	}
	// Hottest shard must be shard 3 (4× the work of shard 0).
	if r.HotShards[0].Shard != 3 {
		t.Errorf("hottest shard = %d, want 3", r.HotShards[0].Shard)
	}
	if r.HotShards[0].Share <= r.HotShards[len(r.HotShards)-1].Share {
		t.Error("hot shards not sorted by share")
	}
	// Cross-shard totals exclude the diagonal.
	var wantReq, wantGrant int64
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src != dst {
				wantReq += int64(src*10 + dst)
				wantGrant += int64(src*10 + dst + 1)
			}
		}
	}
	if r.CrossShardRequests != 2*wantReq || r.CrossShardGrants != 2*wantGrant {
		t.Errorf("cross-shard = %d req / %d grant, want %d / %d",
			r.CrossShardRequests, r.CrossShardGrants, 2*wantReq, 2*wantGrant)
	}
	if len(r.RequestMatrix) != 4 || r.RequestMatrix[1][2] != 2*12 {
		t.Errorf("request matrix wrong: %v", r.RequestMatrix)
	}
	if r.MsgEffects != 1000 || r.NodeEffects != 600 || r.MergeNs != 14000 {
		t.Errorf("effect counters = %d/%d/%d", r.MsgEffects, r.NodeEffects, r.MergeNs)
	}
	if r.SuggestedShards < 1 {
		t.Errorf("suggested shards = %d", r.SuggestedShards)
	}
}

func TestEngineProfileEmpty(t *testing.T) {
	var p EngineProfile
	p.EngineRun(RunMeta{}, nil)                    // nil stats: ignored
	p.EngineRun(RunMeta{}, &network.EngineStats{}) // zero cycles: ignored
	r := p.Report()
	if r.Runs != 0 {
		t.Fatalf("Runs = %d, want 0", r.Runs)
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "no engine telemetry") {
		t.Errorf("empty report should carry an explanatory note, got %v", r.Notes)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0 run(s)") {
		t.Errorf("text report = %q", b.String())
	}
}

// TestEngineProfileGrow: runs with different shard counts fold into the
// largest geometry without losing accumulated counts.
func TestEngineProfileGrow(t *testing.T) {
	var p EngineProfile
	p.EngineRun(RunMeta{}, fakeEngineStats(2, 1000))
	p.EngineRun(RunMeta{}, fakeEngineStats(4, 1000))
	r := p.Report()
	if r.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", r.Shards)
	}
	// (0,1) appears in both runs: 1 + 1.
	if r.RequestMatrix[0][1] != 2 {
		t.Errorf("RequestMatrix[0][1] = %d, want 2", r.RequestMatrix[0][1])
	}
	// (3,0) only exists in the 4-shard run.
	if r.RequestMatrix[3][0] != 30 {
		t.Errorf("RequestMatrix[3][0] = %d, want 30", r.RequestMatrix[3][0])
	}
}

func TestEngineProfileConcurrent(t *testing.T) {
	var p EngineProfile
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.EngineRun(RunMeta{}, fakeEngineStats(4, 100))
		}()
	}
	wg.Wait()
	if r := p.Report(); r.Runs != 8 {
		t.Errorf("Runs = %d, want 8", r.Runs)
	}
}

func TestEngineReportJSONRoundTrip(t *testing.T) {
	var p EngineProfile
	p.EngineRun(RunMeta{}, fakeEngineStats(4, 1000))
	var b strings.Builder
	if err := p.Report().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back EngineReport
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Shards != 4 || len(back.Phases) != network.EnginePhases {
		t.Errorf("decoded report = %+v", back)
	}
	// The jq smoke in CI asserts these paths; keep them stable.
	var raw map[string]any
	if err := json.Unmarshal([]byte(b.String()), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"runs", "shards", "cycles", "phases", "hot_shards",
		"cross_shard_requests", "cross_shard_grants", "suggested_shards"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

func TestEngineReportText(t *testing.T) {
	var p EngineProfile
	p.EngineRun(RunMeta{}, fakeEngineStats(4, 1000))
	var b strings.Builder
	if err := p.Report().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"engine profile: 1 run(s), 4 shard(s), 100 cycles",
		network.EnginePhaseNames[0], network.EnginePhaseNames[3],
		"hottest shards: #3", "cross-shard:", "suggested shard count:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestSuggestShardsFollowsAutoRule: the report never advises sharding a
// network the auto rule keeps on one shard (64 and 256 routers stay below
// it on any core count), and caps growth at the rule's count for the
// 32-ary 3-cube (min(GOMAXPROCS, 32768/4096)).
func TestSuggestShardsFollowsAutoRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		procs, shards, routers int
		idle                   float64
		want                   int
	}{
		{4, 1, 64, 0, 1},
		{16, 1, 256, 0, 1},
		{16, 4, 256, 0.01, 1}, // explicit shards on a small network: back to 1
		{4, 1, 32768, 0, 4},
		{16, 1, 32768, 0, 8},
		{1, 1, 32768, 0, 1},
		{16, 2, 32768, 0.01, 4}, // compute-bound: double
		{16, 8, 32768, 0.01, 8}, // already at the rule's count
		{4, 4, 32768, 0.5, 2},   // mostly idle: halve
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		got, notes := suggestShards(c.shards, c.routers, c.idle, 0, 1)
		if got != c.want {
			t.Errorf("GOMAXPROCS=%d: suggestShards(%d shards, %d routers, idle %.2f) = %d, want %d (notes %q)",
				c.procs, c.shards, c.routers, c.idle, got, c.want, notes)
		}
		if got != c.shards && len(notes) == 0 {
			t.Errorf("GOMAXPROCS=%d, %d shards, %d routers: a changed count needs a note", c.procs, c.shards, c.routers)
		}
	}

	// End to end: the profile takes the network size from EngineStats.
	runtime.GOMAXPROCS(16)
	for _, c := range []struct{ routers, want int }{{64, 1}, {32768, 8}} {
		var p EngineProfile
		es := fakeEngineStats(1, 1000)
		es.Routers = c.routers
		p.EngineRun(RunMeta{}, es)
		if got := p.Report().SuggestedShards; got != c.want {
			t.Errorf("1-shard %d-router report suggests %d shards, want %d", c.routers, got, c.want)
		}
	}
}
