//go:build !race

package replay

const raceDetector = false
