package advisor

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// verdictStream is the recorded observation stream the verdict pin
// replays: deterministic, index-derived, three phases — stable co-access
// traffic, a hard shift to single-column reads (drift), then the drifted
// mix sustained (stable again under the recomputed advice). Batch sizes and
// weights vary so the priced window carries non-uniform mass.
func verdictStream() [][]schema.TableQuery {
	var batches [][]schema.TableQuery
	id := 0
	add := func(n int, attrs func(j int) attrset.Set) {
		batch := make([]schema.TableQuery, n)
		for j := range batch {
			id++
			batch[j] = schema.TableQuery{
				ID:     fmt.Sprintf("e%d", id),
				Weight: float64(1 + id%3),
				Attrs:  attrs(j),
			}
		}
		batches = append(batches, batch)
	}
	coAccess := func(j int) attrset.Set {
		if j%3 == 2 {
			return attrset.Of(2, 3)
		}
		return attrset.Of(0, 1)
	}
	single := func(j int) attrset.Set { return attrset.Of(j % 2) }
	for i := 0; i < 8; i++ {
		add(2+i%3, coAccess)
	}
	for i := 0; i < 8; i++ {
		add(3+i%2, single)
	}
	for i := 0; i < 8; i++ {
		add(2+i%4, single)
	}
	return batches
}

// replayVerdicts streams verdictStream through a fresh service and renders
// one verdict line per batch.
func replayVerdicts(t *testing.T) []string {
	t.Helper()
	svc := NewService(Config{
		DriftThreshold: 0.15,
		DriftWindow:    16,
	})
	register(t, svc)
	var lines []string
	for i, batch := range verdictStream() {
		rep, err := svc.Observe("events", batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		lines = append(lines, fmt.Sprintf("batch=%02d drifted=%t recomputed=%t observed=%d recomputes=%d",
			i, rep.Drifted, rep.Recomputed, rep.Observed, rep.Recomputes))
	}
	return lines
}

// The drift-verdict pin: on the recorded stream, the per-batch verdicts of
// pricing the retained window against the O2P shadow match the committed
// golden file batch for batch. An incremental shadow must reproduce this
// file unchanged. Regenerate with
// go test ./internal/advisor -run TestDriftVerdictsGolden -update
func TestDriftVerdictsGolden(t *testing.T) {
	got := strings.Join(replayVerdicts(t), "\n") + "\n"
	golden := filepath.Join("testdata", "observe_verdicts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("verdict stream diverged from golden:\ngot:\n%swant:\n%s", got, want)
	}

	// The drifted phase must actually have fired — a golden full of
	// drifted=false would pin nothing.
	if !strings.Contains(got, "recomputed=true") {
		t.Error("stream never recomputed; the verdict pin is vacuous")
	}
}
