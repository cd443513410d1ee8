//go:build race

package advisor

// raceDetector reports that the test binary was built with -race, under
// which sync.Pool drops a share of what is put back, at random.
const raceDetector = true
