//go:build !race

package testutil

// RaceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, so allocation budgets are not measured under it.
const RaceEnabled = false
