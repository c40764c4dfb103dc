//go:build race

package multi

// raceEnabled reports that this binary was built with -race. The
// allocation-budget test skips itself then: the race runtime allocates
// shadow state of its own, so testing.AllocsPerRun's global-malloc
// delta no longer measures the code under test.
const raceEnabled = true
