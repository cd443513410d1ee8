package advisor

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knives/internal/faultinject"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// transcriptStep is one request of the recorded HTTP transcript; an empty
// body is a GET.
type transcriptStep struct{ path, body string }

// Two workloads: "events" is advised, observed, drifted and migrated; "dated"
// has a u32 column for /query's selection and is only ever executed. /replay
// and the selection-less /query use different seeds, so no step is answered
// from a report another ROUTE cached — that sharing has tests of its own
// (TestResidentStore…), and a transcript crossing it could not be compared
// with a build that predates it.
const (
	transcriptEvents = `"tables":[{"name":"events","rows":1000000,"columns":[{"name":"a","kind":"char","size":100},{"name":"b","kind":"char","size":100},{"name":"c","kind":"char","size":100},{"name":"d","kind":"char","size":100}]}],` +
		`"queries":[{"id":"q1","tables":{"events":["a","b"]}},{"id":"q2","tables":{"events":["a","b"]}},{"id":"q3","tables":{"events":["c","d"]}}]`
	transcriptDated = `"tables":[{"name":"dated","rows":1000000,"columns":[{"name":"ts","kind":"date","size":4},{"name":"a","kind":"char","size":100},{"name":"b","kind":"char","size":100},{"name":"c","kind":"char","size":100}]}],` +
		`"queries":[{"id":"q1","tables":{"dated":["ts","a"]}},{"id":"q2","tables":{"dated":["a","b"]}},{"id":"q3","tables":{"dated":["c"]}}]`
	transcriptDrift = `{"batches":[{"table":"events","queries":[{"attrs":["a"]},{"attrs":["b"]},{"attrs":["a"]},{"attrs":["b"]}]}]}`
)

var transcriptSteps = []transcriptStep{
	{"/advise", `{` + transcriptEvents + `}`},
	{"/advise", `{` + transcriptEvents + `}`},
	{"/advise", `{"tables":[{"name":"events","rows":10,"columns":[{"name":"a","size":4}]}],"queries":[{"id":"q1","tables":{"events":["nosuch"]}}]}`},
	{"/advise", `{"benchmark":"nosuch"}`},
	{"/advise", `{"tables":[]} trailing`},

	// One-entry /observe requests, every verdict status an entry can earn.
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":["a","b"]},{"attrs":["c","d"],"weight":2}]}]}`},
	{"/observe", `{"batches":[{"table":"events"}]}`},
	{"/observe", `{"batches":[{"table":"nosuch","queries":[{"attrs":["a"]}]}]}`},
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":[]}]}]}`},
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":["a"],"weight":-1}]}]}`},
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":["zz"]}]}]}`},
	{"/observe", `{}`},
	{"/observe", `{"batch_id":"b1","batches":[` +
		`{"table":"events","queries":[{"attrs":["a","b"]}]},` +
		`{"table":"nosuch","queries":[{"attrs":["a"]}]},` +
		`{"table":"events","queries":[{"attrs":[]}]},` +
		`{"table":"events","queries":[{"attrs":["zz"]}]},` +
		`{"table":"events","queries":[]}]}`},
	{"/observe", `{"batch_id":"b1","batches":[{"table":"events","queries":[{"attrs":["a","b"]}]}]}`},
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":["c","d"]}]}]}`},
	// The retired single-table shape is an unknown field.
	{"/observe", `{"table":"events","queries":[{"attrs":["a"]}]}`},
	{"/observe", `{"batches":[]}`},
	{"/observe", `{"batch_id":"empty","batches":[]}`},
	{"/observe", `{"batch_id":"empty","batches":[]}`},
	{"/observe", `{"batch_id":"` + strings.Repeat("x", maxBatchIDLen+1) + `","batches":[{"table":"events","queries":[{"attrs":["a"]}]}]}`},
	{"/observe", `{"batches":[],"nosuchfield":1}`},

	// The executed reports: /replay, then /query with and without a σ and
	// with the exec label. A body carrying a retired pool or batch field
	// (workers, batch_size, exec_workers) is an unknown field.
	{"/replay", `{` + transcriptDated + `,"max_rows":600,"seed":3}`},
	{"/replay", `{` + transcriptDated + `,"max_rows":600,"seed":3}`},
	{"/replay", `{` + transcriptDated + `,"max_rows":600,"seed":3,"model":{"name":"ssd"}}`},
	{"/replay", `{` + transcriptDated + `,"max_rows":-1}`},
	{"/replay", `{` + transcriptDated + `,"workers":2}`},
	{"/replay", `{` + transcriptEvents + `,"max_rows":500}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"selection":{"table":"dated","column":"ts","bound":1263}}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"selection":{"table":"dated","column":"ts","bound":400},"exec":"vector"}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"selection":{"table":"dated","column":"ts","bound":1263},"exec":"row"}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"exec":"columnar"}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"batch_size":64}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"exec_workers":2}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"selection":{"table":"dated","column":"a","bound":1}}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"selection":{"table":"nosuch","column":"ts","bound":1}}`},
	{"/query", `{` + transcriptDated + `,"max_rows":600,"seed":4,"selection":{"table":"dated","column":"","bound":1}}`},

	// Drift: the recompute evicts the report cached for "events" above, so
	// the same /replay executes again, on the new layout.
	{"/observe", transcriptDrift},
	{"/observe", transcriptDrift},
	{"/observe", transcriptDrift},
	{"/observe", transcriptDrift},
	{"/replay", `{` + transcriptEvents + `,"max_rows":500}`},
	{"/migrate", `{"table":"events","max_rows":500}`},
	{"/migrate", `{"table":"events","max_rows":500}`},
	{"/migrate", `{"table":"nosuch"}`},
	{"/migrate", `{}`},
	{"/migrate", `{"table":"events","max_rows":-1}`},

	{"/advice?table=events", ""},
	{"/advice?table=nosuch", ""},
	{"/advice", ""},
	{"/tables", ""},
	{"/healthz", ""},
	{"/stats", ""},
	{"/metrics", ""},
}

// A journal whose 2nd and 4th writes fail (the 1st is the registration):
// an /observe with a batch ID and one without each meet one failed group
// commit, answer 503 with Retry-After, and apply on redelivery — the ID'd
// one under the same ID.
var transcriptJournalSteps = []transcriptStep{
	{"/advise", `{` + transcriptEvents + `}`},
	{"/observe", `{"batch_id":"f1","batches":[{"table":"events","queries":[{"attrs":["a","b"]}]}]}`},
	{"/observe", `{"batch_id":"f1","batches":[{"table":"events","queries":[{"attrs":["a","b"]}]}]}`},
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":["c","d"]}]}]}`},
	{"/observe", `{"batches":[{"table":"events","queries":[{"attrs":["c","d"]}]}]}`},
	{"/stats", ""},
}

// runTranscript drives steps through srv one at a time and renders, per
// step, the request, the status (with the Retry-After hint when one was
// sent) and the body.
func runTranscript(b *strings.Builder, srv *Server, steps []transcriptStep) {
	for i, st := range steps {
		method, body := http.MethodGet, st.body
		if body != "" {
			method = http.MethodPost
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, st.path, strings.NewReader(body)))
		if len(body) > 160 {
			body = body[:160] + "…"
		}
		fmt.Fprintf(b, "### %02d %s %s %s\n%d", i+1, method, st.path, body, rec.Code)
		if ra := rec.Header().Get("Retry-After"); ra != "" {
			fmt.Fprintf(b, " Retry-After: %s", ra)
		}
		b.WriteByte('\n')
		out := rec.Body.String()
		if st.path == "/metrics" {
			out = untimedSamples(out)
		}
		b.WriteString(out)
		if !strings.HasSuffix(out, "\n") {
			b.WriteByte('\n')
		}
	}
}

// untimedSamples keeps the exposition's samples that do not depend on the
// clock: comments and every *_seconds series go.
func untimedSamples(expo string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(expo, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_seconds") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestHTTPTranscript replays a fixed request list against an in-process
// server and compares every status and body with the recorded golden — the
// standing answer to "did a serving-path refactor move a response byte".
// Regenerate with go test ./internal/advisor -run TestHTTPTranscript -update
// and read the golden's diff: every changed line is a behaviour change.
func TestHTTPTranscript(t *testing.T) {
	var b strings.Builder

	reg := telemetry.NewRegistry()
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8, Telemetry: reg})
	b.WriteString("## in-memory daemon\n")
	runTranscript(&b, NewServerWith(svc, ServerConfig{RetryAfter: 2 * time.Second, Telemetry: reg}), transcriptSteps)

	fsys, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(fsys, faultinject.FailNthWrite(2), faultinject.FailNthWrite(4))
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 8, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := OpenService(Config{Store: st, DriftThreshold: 100, DriftWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("## durable daemon, journal writes 2 and 4 fail\n")
	runTranscript(&b, NewServerWith(durable, ServerConfig{RetryAfter: 2 * time.Second}), transcriptJournalSteps)
	if inj.Injected() != 2 {
		t.Errorf("%d journal faults fired, want 2", inj.Injected())
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	got := b.String()
	golden := filepath.Join("testdata", "http_transcript.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript diverged from %s at line %d:\n  got:  %s\n  want: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript diverged from %s: %d lines, golden has %d", golden, len(gl), len(wl))
	}
}
