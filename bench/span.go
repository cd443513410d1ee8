package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass: a call into a layer's
// public API, or the op (or probe) that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // position of the op in the traced prefix; -1 for probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans and the counts taken at the same boundaries in
// memory; they are written out once, when the benchmark ends. Safe for
// concurrent use: the service fans observations out over goroutines, and
// the store and file-system wrappers record from all of them.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: make(map[string]int64)}
}

// start opens a span and returns its id (ids start at 1).
func (r *recorder) start(name string, parent, op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.dur())
}

// rename gives a span a name only known once the call returned (a cache hit
// or a miss).
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

func (r *recorder) add(name string, n int64) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// get returns one span by id.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// allCounts returns a copy of the counts taken so far.
func (r *recorder) allCounts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its child spans cover. Children may overlap each other (the
// service runs tables concurrently) and are clipped to the parent, so the
// covered part is the length of the union of the clipped child intervals.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// checkNesting reports every span that does not lie inside its parent, has
// no end, or names a parent that does not exist.
func checkNesting(spans []span) []string {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var problems []string
	for _, s := range spans {
		if s.End < s.Start {
			problems = append(problems, fmt.Sprintf("span %d (%s) never ended", s.ID, s.Name))
			continue
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent))
		case s.Start < p.Start || s.End > p.End:
			problems = append(problems, fmt.Sprintf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End))
		}
	}
	return problems
}

// selfByName sums self time, in seconds, by span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}
