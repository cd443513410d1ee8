//go:build !race

package algorithms

const raceDetector = false
