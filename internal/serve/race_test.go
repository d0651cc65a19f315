//go:build race

package serve

// raceDetector reports a -race build, in which sync.Pool drops a random
// share of the items put back, so pooled scratch is reallocated.
const raceDetector = true
