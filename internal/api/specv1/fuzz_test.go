package specv1

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexsim/internal/sim"
)

// FuzzDecodeSpec feeds arbitrary bytes to the strict spec decoder. It must
// never panic; every spec it accepts must survive EncodeSpec → DecodeSpec
// unchanged, and Validate and Configs must not panic on it either.
func FuzzDecodeSpec(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spec_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, tc := range strictSpecCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		if _, err := spec.Configs(); err != nil {
			t.Fatalf("accepted spec fails Configs: %v", err)
		}
		var buf bytes.Buffer
		if err := EncodeSpec(&buf, spec); err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := DecodeSpec(&buf)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, buf.Bytes())
		}
		nilEmpty(reflect.ValueOf(spec))
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip changed spec:\n got %+v\nwant %+v", again, spec)
		}
	})
}

// FuzzDecodeRunRequest feeds arbitrary bytes to the strict worker
// run-request decoder. It must never panic, and every request it accepts
// must survive encode → DecodeRunRequest unchanged.
func FuzzDecodeRunRequest(f *testing.F) {
	valid, err := json.Marshal(&RunRequest{SchemaVersion: Version, Config: FromSim(sim.Quick()),
		TimeoutMS: 500, Trace: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, body := range []string{
		`{"schema_version":1,"config":{"label":"x","load":0.5},"timeout_ms":1000}`,
		`{"schema_version":1,"config":{"k":4,"n":2},"zap":1}`,
		`{"config":{"k":4,"n":2}}`,
		`{"schema_version":1,"config":{"fault_events":[{"cycle":3,"kind":"link-down","ch":1}],"timeout_thresholds":[8]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		again, err := DecodeRunRequest(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, raw)
		}
		nilEmpty(reflect.ValueOf(req))
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// nilEmpty replaces every empty slice reachable from v with nil. Wire lists
// are omitempty, so an empty list and an absent one encode alike and decode
// to nil after one round trip; the two are the same wire value.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	}
}
