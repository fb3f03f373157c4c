//go:build race

package sdnbugs

// raceEnabled skips the tests that mean nothing or cost too much under
// the race detector: the wall-clock speedup assertion and the
// warm-vs-cold validation cache comparison. The golden contract still
// runs every experiment, E09's parallel validation grid included.
const raceEnabled = true
