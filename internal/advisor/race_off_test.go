//go:build !race

package advisor

const raceDetector = false
