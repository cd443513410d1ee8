package algo

import (
	"fmt"
	"sync"
)

// FanOut runs f(0), ..., f(n-1) concurrently, waits for all of them, and
// returns the lowest-index error — the same first-error-wins semantics as a
// serial loop, shared by every fan-out in the advisor, the experiment
// suite, and the replay layer, so parallel output is indistinguishable from
// a serial run. A panicking worker is converted into that worker's error:
// net/http only recovers panics on the handler's own goroutine, so without
// this a single degenerate request could kill the whole long-running daemon
// instead of failing alone.
func FanOut(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("algo: worker %d panicked: %v", i, r)
				}
			}()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
