// Package fault is the simulator's deterministic fault-injection engine:
// timed, seed-driven events — link down/up, single-VC lockout, node
// fail-stop — applied to a running network. The paper characterizes
// deadlocks in healthy k-ary n-cubes; real interconnects lose links and
// routers, and recovery-based schemes are attractive precisely because they
// make dynamic reconfiguration cheap. A fault schedule opens that sweep
// axis: deadlock frequency as a function of failed-link fraction.
//
// Determinism is the design constraint. A schedule is either written out
// explicitly (a JSONL file, one event per line) or generated from
// (seed, MTTF, repair) with a named RNG stream — rng.Stream(seed, "fault")
// — that is derived from the seed value alone, so attaching a schedule
// never perturbs a single traffic or workload draw. The schedule is part of
// sim.Spec and therefore part of the content-addressed cache key: two
// runs with the same schedule and seed are byte-identical, and a changed
// schedule is a different cache entry.
package fault

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"flexsim/internal/rng"
	"flexsim/internal/topology"
)

// Kind enumerates fault event types.
type Kind int8

const (
	// LinkDown deactivates one directed channel: messages occupying its
	// VCs are killed, and routing excludes it from every candidate set.
	LinkDown Kind = iota
	// LinkUp reactivates a downed channel.
	LinkUp
	// VCDown locks a single virtual channel of a channel (a stuck
	// allocator entry); the channel's other VCs keep working.
	VCDown
	// VCUp unlocks a locked virtual channel.
	VCUp
	// NodeDown fail-stops a router: every incident channel goes dead,
	// messages holding its resources or destined to it are killed, and its
	// source queue stops injecting.
	NodeDown
	// NodeUp restarts a failed router.
	NodeUp
)

// String returns the stable kind name used in schedule files.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case VCDown:
		return "vc-down"
	case VCUp:
		return "vc-up"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// KindByName maps a stable kind name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k := LinkDown; k <= NodeUp; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Event is one timed fault: at Cycle, apply Kind to the named resource.
// Ch/VC/Node are plain ints (not topology/message handle types) so the
// struct JSON-encodes cleanly in schedule files and in the canonical config
// encoding behind the result-cache key.
type Event struct {
	Cycle int64
	Kind  Kind
	// Ch is the directed channel id (LinkDown/LinkUp/VCDown/VCUp).
	Ch int
	// VC is the virtual-channel index within Ch (VCDown/VCUp).
	VC int
	// Node is the router id (NodeDown/NodeUp).
	Node int
}

// eventJSON is the wire form: the kind travels by stable name.
type eventJSON struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Ch    int    `json:"ch,omitempty"`
	VC    int    `json:"vc,omitempty"`
	Node  int    `json:"node,omitempty"`
}

// MarshalJSON encodes the event with its kind name.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{Cycle: e.Cycle, Kind: e.Kind.String(), Ch: e.Ch, VC: e.VC, Node: e.Node})
}

// UnmarshalJSON decodes an event produced by MarshalJSON.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	k, ok := KindByName(j.Kind)
	if !ok {
		return fmt.Errorf("fault: unknown event kind %q", j.Kind)
	}
	*e = Event{Cycle: j.Cycle, Kind: k, Ch: j.Ch, VC: j.VC, Node: j.Node}
	return nil
}

// String formats the event for logs and incident post-mortems.
func (e Event) String() string {
	switch e.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("[%d] %s ch=%d", e.Cycle, e.Kind, e.Ch)
	case VCDown, VCUp:
		return fmt.Sprintf("[%d] %s ch=%d vc=%d", e.Cycle, e.Kind, e.Ch, e.VC)
	default:
		return fmt.Sprintf("[%d] %s node=%d", e.Cycle, e.Kind, e.Node)
	}
}

// Sort orders events by cycle, stably, so a schedule assembled from several
// sources applies in a deterministic order.
func Sort(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
}

// Validate checks every event against a topology: channel and node ids in
// range, VC indices within [0, vcs). It returns the first offending event.
func Validate(events []Event, topo topology.Network, vcs int) error {
	for i, e := range events {
		switch e.Kind {
		case LinkDown, LinkUp:
			if e.Ch < 0 || e.Ch >= topo.NumChannels() {
				return fmt.Errorf("fault: event %d: channel %d out of range [0,%d)", i, e.Ch, topo.NumChannels())
			}
		case VCDown, VCUp:
			if e.Ch < 0 || e.Ch >= topo.NumChannels() {
				return fmt.Errorf("fault: event %d: channel %d out of range [0,%d)", i, e.Ch, topo.NumChannels())
			}
			if e.VC < 0 || e.VC >= vcs {
				return fmt.Errorf("fault: event %d: vc %d out of range [0,%d)", i, e.VC, vcs)
			}
		case NodeDown, NodeUp:
			if e.Node < 0 || e.Node >= topo.Nodes() {
				return fmt.Errorf("fault: event %d: node %d out of range [0,%d)", i, e.Node, topo.Nodes())
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int8(e.Kind))
		}
		if e.Cycle < 0 {
			return fmt.Errorf("fault: event %d: negative cycle %d", i, e.Cycle)
		}
	}
	return nil
}

// ReadSchedule parses a JSONL schedule (one Event per line, as written by
// WriteSchedule); blank lines are skipped. Events are returned sorted by
// cycle.
func ReadSchedule(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<14), 1<<22)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("fault: schedule line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fault: schedule read: %w", err)
	}
	Sort(events)
	return events, nil
}

// WriteSchedule writes events as JSONL, one per line.
func WriteSchedule(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// GenerateLinkFaults synthesizes a link-failure/repair schedule over
// [0, horizon): each directed channel independently fails with
// exponentially distributed time-to-failure of mean mttf cycles and, when
// repair > 0, comes back up repair cycles later (repair <= 0 leaves failed
// links down for the rest of the run). The steady-state failed-link
// fraction is repair/(mttf+repair).
//
// The schedule is fully determined by (seed, mttf, repair, horizon,
// topology): draws come from rng.Stream(seed, "fault"), channels are
// visited in id order, and the result is sorted by cycle — so the same
// parameters always produce the same schedule, independent of everything
// else in the run.
func GenerateLinkFaults(topo topology.Network, seed uint64, mttf, repair int, horizon int64) []Event {
	if mttf <= 0 || horizon <= 0 {
		return nil
	}
	src := rng.Stream(seed, "fault")
	var events []Event
	for ch := 0; ch < topo.NumChannels(); ch++ {
		if !topo.ChannelExists(topology.ChannelID(ch)) {
			continue // mesh edge-wrap slots: ids with no physical link
		}
		t := int64(0)
		for {
			t += int64(src.ExpFloat64()*float64(mttf)) + 1
			if t >= horizon {
				break
			}
			events = append(events, Event{Cycle: t, Kind: LinkDown, Ch: ch})
			if repair <= 0 {
				break
			}
			t += int64(repair)
			if t >= horizon {
				break
			}
			events = append(events, Event{Cycle: t, Kind: LinkUp, Ch: ch})
		}
	}
	Sort(events)
	return events
}
