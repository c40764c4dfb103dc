//go:build !race

package workload

// raceEnabled reports whether this binary was built with -race; see
// race_enabled_test.go.
const raceEnabled = false
