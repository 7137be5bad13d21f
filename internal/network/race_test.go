//go:build race

package network

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates and so voids allocation counts.
const raceEnabled = true
