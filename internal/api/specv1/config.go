package specv1

import "flexsim/internal/sim"

// PointConfig is the wire form of one simulation point: sim.Spec, the
// semantic half of sim.Config, whose fields carry their snake_case JSON
// names. Embedding keeps the encoding flat. The runtime half (sim.Observe:
// sinks, tracers, shard counts, artifact paths) has no wire form: an
// execution service chooses those per process, not per request, so two
// clients submitting the same physics always hit the same cache entry.
type PointConfig struct {
	sim.Spec
}

// FromSim captures the semantic half of a simulation configuration into
// the wire form.
func FromSim(c sim.Config) PointConfig { return PointConfig{c.Spec} }

// ToSim expands the wire form into a runnable simulation configuration
// with a zero sim.Observe; the executing process attaches its own.
func (p PointConfig) ToSim() sim.Config { return sim.Config{Spec: p.Spec} }
