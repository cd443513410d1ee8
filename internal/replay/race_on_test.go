//go:build race

package replay

// raceDetector reports that the test binary was built with -race, whose
// instrumentation moves allocations from the stack to the heap.
const raceDetector = true
