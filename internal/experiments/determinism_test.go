package experiments

import "testing"

// Every non-timing experiment must render byte-identically across fresh
// suites: the reproduction's numbers are claims, and claims must not
// depend on map iteration order, scheduling, or hidden randomness.
// fig1 and fig2 are excluded — they measure wall-clock optimization time —
// and so is fig10, whose pay-off metric embeds the measured optimization
// time by definition.
func TestExperimentsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full suites")
	}
	timing := map[string]bool{"fig1": true, "fig2": true, "fig10": true}
	fresh := func() *Suite {
		s := NewSuite()
		s.Reps = 1
		return s
	}
	s1, s2 := fresh(), fresh()
	for _, e := range All() {
		if timing[e.ID] {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r1, err := e.Run(s1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := e.Run(s2)
			if err != nil {
				t.Fatal(err)
			}
			if r1.String() != r2.String() {
				t.Errorf("non-deterministic report:\n--- run 1:\n%s\n--- run 2:\n%s", r1, r2)
			}
		})
	}
}
