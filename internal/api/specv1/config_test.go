package specv1

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"flexsim/internal/fault"
	"flexsim/internal/obs"
	"flexsim/internal/runner"
	"flexsim/internal/sim"
	"flexsim/internal/trace"
)

// snakeCase matches a wire field name such as "buffer_depth".
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// TestSpecShape pins the shape that makes sim.Spec safe to hash and to
// send. Every field has a unique snake_case JSON name: encoding/json
// silently drops fields whose names collide, and such a field would never
// travel. No field has a kind whose canonical encoding is an address or
// fails (func, interface, pointer, chan, map): such a field would make
// cache keys nondeterministic, and belongs in sim.Observe. Finally, each
// field set to a non-default value survives a JSON wire round trip with
// its cache key intact.
func TestSpecShape(t *testing.T) {
	typ := reflect.TypeOf(sim.Spec{})
	names := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !snakeCase.MatchString(name) {
			t.Errorf("sim.Spec.%s: json name %q is not snake_case", f.Name, name)
		}
		if prev, dup := names[name]; dup {
			t.Errorf("sim.Spec.%s: json name %q already used by %s", f.Name, name, prev)
		}
		names[name] = f.Name
		k := f.Type
		if k.Kind() == reflect.Slice {
			k = k.Elem()
		}
		switch k.Kind() {
		case reflect.Func, reflect.Interface, reflect.Pointer, reflect.Chan, reflect.Map:
			t.Errorf("sim.Spec.%s has %s kind; runtime plumbing belongs in sim.Observe", f.Name, k.Kind())
		}
	}
	if t.Failed() {
		return
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		c := sim.Default()
		mutateField(&c.Spec, i)
		raw, err := json.Marshal(FromSim(c))
		if err != nil {
			t.Fatalf("sim.Spec.%s: %v", f.Name, err)
		}
		var p PointConfig
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatalf("sim.Spec.%s: %v", f.Name, err)
		}
		if got, want := runner.Key(p.ToSim()), runner.Key(c); got != want {
			t.Errorf("sim.Spec.%s does not survive the wire round trip (key %s != %s)",
				f.Name, got[:12], want[:12])
		}
	}
}

// mutateField sets field i of s to a non-default value.
func mutateField(s *sim.Spec, i int) {
	v := reflect.ValueOf(s).Elem().Field(i)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.375)
	case reflect.String:
		v.SetString(v.String() + "zz")
	case reflect.Slice:
		switch elem := v.Type().Elem(); elem {
		case reflect.TypeOf(int64(0)):
			v.Set(reflect.ValueOf([]int64{3, 9}))
		case reflect.TypeOf(fault.Event{}):
			v.Set(reflect.ValueOf([]fault.Event{{Cycle: 5, Kind: fault.LinkDown, Ch: 2}}))
		default:
			panic("specv1 test: add a mutation for slice element type " + elem.String())
		}
	default:
		panic("specv1 test: add a mutation for kind " + v.Kind().String())
	}
}

// allObserve returns a sim.Observe with every field set, by reflection, so
// a field added to Observe is covered without editing the callers.
func allObserve(t *testing.T) sim.Observe {
	impls := []any{trace.NewPerfetto(io.Discard), obs.NewCSVSink(io.Discard), &obs.EngineProfile{}}
	var o sim.Observe
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(8)
		case reflect.String:
			f.SetString(strings.ToLower(name) + "-*")
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Interface:
			for _, impl := range impls {
				if reflect.TypeOf(impl).Implements(f.Type()) {
					f.Set(reflect.ValueOf(impl))
					break
				}
			}
			if f.IsNil() {
				t.Fatalf("allObserve: no sample implements %s (sim.Observe.%s)", f.Type(), name)
			}
		default:
			t.Fatalf("allObserve: add a value for %s kind (sim.Observe.%s)", f.Kind(), name)
		}
	}
	return o
}

func TestConfigRoundTripEquality(t *testing.T) {
	c := sim.Default()
	c.Mesh = false
	c.MsgLenShort = 4
	c.ShortFrac = 0.25
	c.Workload = "stencil"
	c.WorkloadPhases = 3
	c.FaultEvents = []fault.Event{{Cycle: 9, Kind: fault.NodeDown, Node: 7}}
	c.TimeoutThresholds = []int64{32}
	c.Label = "roundtrip"
	round := FromSim(c).ToSim()
	if !reflect.DeepEqual(round, c) {
		t.Fatalf("plumbing-free config changed by round trip:\n got %+v\nwant %+v", round, c)
	}
	if runner.Key(round) != runner.Key(c) {
		t.Fatal("round trip changed the cache key")
	}
}

// TestPlumbingDoesNotTravel pins that runtime plumbing has no wire form: a
// config with every sim.Observe field set produces the same wire bytes as
// one without.
func TestPlumbingDoesNotTravel(t *testing.T) {
	plain := sim.Quick()
	wired := plain
	wired.Observe = allObserve(t)
	a, err := json.Marshal(FromSim(plain))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(FromSim(wired))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("plumbing leaked onto the wire:\n%s\nvs\n%s", a, b)
	}
}

func TestPointConfigJSONNames(t *testing.T) {
	// Spot-check the explicit snake_case names (a sorted-map encode would
	// fail the golden test; this guards individual tag typos).
	raw, err := json.Marshal(FromSim(sim.Quick()))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"k", "n", "bidirectional", "vcs", "buffer_depth",
		"msg_len", "routing", "traffic", "load", "seed", "warmup_cycles",
		"measure_cycles", "detect_every", "victim_policy", "recover"} {
		if _, ok := m[want]; !ok {
			t.Errorf("wire encoding missing field %q (have %v)", want, keys(m))
		}
	}
	for got := range m {
		for _, r := range got {
			if r >= 'A' && r <= 'Z' {
				t.Errorf("wire field %q is not snake_case", got)
			}
		}
	}
}

func keys(m map[string]interface{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
