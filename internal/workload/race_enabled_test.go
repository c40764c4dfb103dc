//go:build race

package workload

// raceEnabled reports that this binary was built with -race. The
// allocation test skips itself then: the race runtime allocates shadow
// state of its own, so testing.AllocsPerRun no longer measures the
// generators alone.
const raceEnabled = true
