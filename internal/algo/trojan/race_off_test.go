//go:build !race

package trojan

const raceDetector = false
