//go:build !race

package algo

const raceDetector = false
