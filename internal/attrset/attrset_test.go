package attrset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOfAndHas(t *testing.T) {
	s := Of(0, 3, 5)
	for _, a := range []int{0, 3, 5} {
		if !s.Has(a) {
			t.Errorf("Has(%d) = false, want true", a)
		}
	}
	for _, a := range []int{1, 2, 4, 6, 63} {
		if s.Has(a) {
			t.Errorf("Has(%d) = true, want false", a)
		}
	}
	if s.Has(-1) || s.Has(64) {
		t.Error("Has out-of-range should be false")
	}
}

func TestAll(t *testing.T) {
	if got := All(0); got != 0 {
		t.Errorf("All(0) = %v, want empty", got)
	}
	if got := All(3); got != Of(0, 1, 2) {
		t.Errorf("All(3) = %v", got)
	}
	if got := All(64).Len(); got != 64 {
		t.Errorf("All(64).Len() = %d, want 64", got)
	}
}

func TestAllPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("All(65) did not panic")
		}
	}()
	All(65)
}

func TestAddRemove(t *testing.T) {
	s := Set(0).Add(7).Add(7).Add(2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s = s.Remove(7)
	if s != Single(2) {
		t.Errorf("after Remove: %v, want {2}", s)
	}
	s = s.Remove(7) // removing absent attr is a no-op
	if s != Single(2) {
		t.Errorf("double Remove changed set: %v", s)
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := Of(0, 1, 2), Of(2, 3)
	if got := a.Union(b); got != Of(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != Of(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != Of(0, 1) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps = false, want true")
	}
	if a.Overlaps(Of(5)) {
		t.Error("Overlaps with disjoint = true")
	}
	if !a.ContainsAll(Of(0, 2)) {
		t.Error("ContainsAll subset = false")
	}
	if a.ContainsAll(b) {
		t.Error("ContainsAll non-subset = true")
	}
}

func TestMin(t *testing.T) {
	if got := Of(5, 9, 63).Min(); got != 5 {
		t.Errorf("Min = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Min of empty set did not panic")
		}
	}()
	Set(0).Min()
}

func TestAttrsRoundTrip(t *testing.T) {
	want := []int{1, 4, 40, 63}
	s := Of(want...)
	got := s.Attrs()
	if len(got) != len(want) {
		t.Fatalf("Attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Attrs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSubsetsCount(t *testing.T) {
	s := Of(0, 2, 5)
	n := 0
	s.Subsets(func(sub Set) bool {
		if !s.ContainsAll(sub) {
			t.Errorf("subset %v not contained in %v", sub, s)
		}
		if sub.IsEmpty() {
			t.Error("Subsets yielded the empty set")
		}
		n++
		return true
	})
	if n != 7 { // 2^3 - 1 non-empty subsets
		t.Errorf("got %d subsets, want 7", n)
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	n := 0
	All(10).Subsets(func(Set) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop after %d iterations, want 5", n)
	}
}

func TestString(t *testing.T) {
	if got := Of(1, 3).String(); got != "{1,3}" {
		t.Errorf("String = %q", got)
	}
	if got := Set(0).String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
	// Against the rendering spelled out with fmt, the full set included;
	// the string itself is the one allocation.
	want := func(s Set) string {
		parts := make([]string, 0, s.Len())
		for _, a := range s.Attrs() {
			parts = append(parts, fmt.Sprint(a))
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range []Set{All(MaxAttrs), Of(0), Of(63), Of(9, 10, 63)} {
		if got := s.String(); got != want(s) {
			t.Errorf("%#x.String() = %q, want %q", uint64(s), got, want(s))
		}
	}
	for range 1000 {
		s := Set(rng.Uint64() & rng.Uint64())
		if got := s.String(); got != want(s) {
			t.Fatalf("%#x.String() = %q, want %q", uint64(s), got, want(s))
		}
	}
	full := All(MaxAttrs)
	if n := testing.AllocsPerRun(100, func() { _ = full.String() }); n > 1 {
		t.Errorf("String of the full set allocated %v times, want 1", n)
	}
}

// Property: union is commutative and associative; Minus then Union restores.
func TestQuickAlgebraLaws(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := Set(a), Set(b), Set(c)
		if x.Union(y) != y.Union(x) {
			return false
		}
		if x.Union(y).Union(z) != x.Union(y.Union(z)) {
			return false
		}
		if x.Minus(y).Union(x.Intersect(y)) != x {
			return false
		}
		return x.Intersect(y).Len() <= min(x.Len(), y.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Attrs is sorted and ForEach visits the same elements.
func TestQuickAttrsSorted(t *testing.T) {
	f := func(a uint64) bool {
		s := Set(a)
		attrs := s.Attrs()
		var visited []int
		s.ForEach(func(i int) { visited = append(visited, i) })
		if len(attrs) != s.Len() || len(visited) != s.Len() {
			return false
		}
		for i := range attrs {
			if attrs[i] != visited[i] {
				return false
			}
			if i > 0 && attrs[i] <= attrs[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every submask yielded by Subsets is unique and the count is
// 2^len - 1 (for small sets).
func TestQuickSubsetsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var s Set
		for i := 0; i < 8; i++ {
			s = s.Add(rng.Intn(20))
		}
		seen := map[Set]bool{}
		s.Subsets(func(sub Set) bool {
			if seen[sub] {
				t.Fatalf("duplicate subset %v of %v", sub, s)
			}
			seen[sub] = true
			return true
		})
		want := (1 << s.Len()) - 1
		if len(seen) != want {
			t.Fatalf("set %v: %d subsets, want %d", s, len(seen), want)
		}
	}
}
