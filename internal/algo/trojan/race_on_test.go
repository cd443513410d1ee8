//go:build race

package trojan

// raceDetector reports that the test binary was built with -race, under
// which the oracle's 2^r loops run ~10x slower.
const raceDetector = true
