package algo

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// SearchGate bounds how many heavy jobs run at once across the whole
// process, however many experiment suites, advisor services, and benchmarks
// overlap: searches (the experiments fan-out and the advisor's portfolio
// fan-out), replays, store loads and migrations each hold one of its
// GOMAXPROCS slots. A slot bounds jobs, not goroutines. A search runs on
// its slot's goroutine, and BruteForce's walkers draw from their own
// GOMAXPROCS-1 budget shared across searches (bruteforce/parallel.go); but
// a replay runs up to replay.Config.Workers pipelines under its one slot,
// and a store load or a repartition as many loaders or movers, each
// GOMAXPROCS by default. The bound that holds for runnable CPU-bound
// goroutines is therefore slots x GOMAXPROCS (GOMAXPROCS squared), plus
// the walker budget, not a small multiple of the core count.
var searchGate = make(chan struct{}, runtime.GOMAXPROCS(0))

// gateWaitObserver, when set, receives the wait duration of every CONTENDED
// slot acquisition — uncontended fast-path acquires are not reported, so the
// observation stream measures queueing, not throughput, and the fast path
// stays a single channel send. The gate is process-wide, so the hook is too:
// last registration wins (in practice the one daemon service of the process).
var gateWaitObserver atomic.Pointer[func(time.Duration)]

// SetGateWaitObserver installs fn as the search-gate wait observer; nil
// uninstalls it.
func SetGateWaitObserver(fn func(time.Duration)) {
	if fn == nil {
		gateWaitObserver.Store(nil)
		return
	}
	gateWaitObserver.Store(&fn)
}

// observeGateWait reports one contended wait to the observer, if any.
func observeGateWait(start time.Time) {
	if fn := gateWaitObserver.Load(); fn != nil {
		(*fn)(time.Since(start))
	}
}

// AcquireSearchSlot blocks until a process-wide search slot is free. Every
// Acquire must be paired with exactly one ReleaseSearchSlot.
func AcquireSearchSlot() {
	select {
	case searchGate <- struct{}{}:
		return
	default:
	}
	start := time.Now()
	searchGate <- struct{}{}
	observeGateWait(start)
}

// ReleaseSearchSlot returns a slot taken by AcquireSearchSlot.
func ReleaseSearchSlot() { <-searchGate }

// AcquireSearchSlotCtx is AcquireSearchSlot with cancellation: it returns
// ctx.Err() instead of a slot when the context ends first. A caller whose
// request deadline expires while queued behind long searches unblocks
// immediately and holds nothing — the goroutine cannot leak on the gate.
// On success, pair with exactly one ReleaseSearchSlot.
func AcquireSearchSlotCtx(ctx context.Context) error {
	select {
	case searchGate <- struct{}{}:
		return nil
	default:
	}
	start := time.Now()
	select {
	case searchGate <- struct{}{}:
		observeGateWait(start)
		return nil
	case <-ctx.Done():
		observeGateWait(start)
		return ctx.Err()
	}
}
