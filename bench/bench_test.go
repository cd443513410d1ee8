package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// streamDigest hashes everything a stream would send, in order.
func streamDigest(s *stream) [sha256.Size]byte {
	h := sha256.New()
	for _, o := range s.setup {
		h.Write([]byte(o.class))
		h.Write(o.body)
	}
	for _, u := range s.units {
		for _, o := range u.ops {
			h.Write([]byte(o.class))
			h.Write(o.body)
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		units, _ := w.sizes(true)
		a, b, c := w.stream(7, units), w.stream(7, units), w.stream(8, units)
		if len(a.units) == 0 || len(a.setup) == 0 {
			t.Errorf("%s: empty stream (%d set-up ops, %d units)", w.name, len(a.setup), len(a.units))
		}
		if streamDigest(a) != streamDigest(b) {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if streamDigest(a) == streamDigest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

// TestMixedScheduleShares pins the shares the mixed workload promises: per
// block, by class, with every chain expanding to 5 requests.
func TestMixedScheduleShares(t *testing.T) {
	s := mixedStream(3, 4*mixBlockUnits)
	if len(s.units) != 4*mixBlockUnits {
		t.Fatalf("%d units, want %d", len(s.units), 4*mixBlockUnits)
	}
	counts := make(map[string]int)
	for _, u := range s.units {
		counts[u.ops[0].class]++
		if u.chain && len(u.ops) != 1+maxDriftBatches+2 {
			t.Errorf("chain of %d ops", len(u.ops))
		}
	}
	want := map[string]int{
		clsObserve: 4 * mixObserve, clsAdviseHit: 4 * mixAdviseHit, clsAdviseMiss: 4 * mixAdviseMiss,
		clsQueryHit: 4 * mixQueryHit, clsQueryMiss: 4 * mixQueryMiss, clsReplayMiss: 4 * mixReplayMiss,
		clsDriftAdvise: 4 * mixChains,
	}
	for class, n := range want {
		if counts[class] != n {
			t.Errorf("%s: %d units, want %d", class, counts[class], n)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSegmentOf(t *testing.T) {
	bounds := []float64{0, 2, 4, 6.5}
	for _, c := range []struct {
		t    float64
		want int
	}{{-1, 0}, {0, 0}, {0.1, 0}, {2, 0}, {2.1, 1}, {4, 1}, {4.5, 2}, {6.5, 2}, {9, 2}} {
		if got := segmentOf(bounds, c.t); got != c.want {
			t.Errorf("segmentOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestEndToEndIsTheMedianSegment builds a pass of five one-second segments,
// one of them disturbed, and checks that every timing metric reads the
// undisturbed value.
func TestEndToEndIsTheMedianSegment(t *testing.T) {
	p := &httpPass{setups: []float64{0.5, 0.3, 0.4}}
	p.marks = append(p.marks, mark{})
	for k := 0; k < 5; k++ {
		ops, latency, cpuTicks, hwm := 100, 2*time.Millisecond, int64(50), int64(40<<10)
		if k == 1 { // the noisy neighbour
			ops, latency, cpuTicks, hwm = 40, 9*time.Millisecond, 90, 70<<10
		}
		for i := 0; i < ops; i++ {
			end := time.Duration(k)*time.Second + time.Duration(i+1)*time.Second/time.Duration(ops)
			p.samples = append(p.samples, sample{class: clsObserve, start: end - latency, end: end, ok: true})
		}
		prev := p.marks[k].proc
		p.marks = append(p.marks, mark{
			at:   time.Duration(k+1) * time.Second,
			proc: procSample{utimeTicks: prev.utimeTicks + cpuTicks, vmHWMKB: hwm},
		})
	}
	m, parts := endToEndMetrics(p)
	rates := parts["ops_s"]
	if len(rates) != 5 {
		t.Fatalf("%d segment rates, want 5", len(rates))
	}
	want := metrics{"ops_s": 100, "p50_ms": 2, "p95_ms": 2, "cpu_ms_per_op": 5, "peak_rss_mb": 40, "setup_s": 0.4}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	if lo, hi := minMax(rates); lo != 40 || hi != 100 {
		t.Errorf("segment rates span %v..%v, want 40..100", lo, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service", Start: 10, End: 90},
		// Two overlapping children and one that sticks out of its parent:
		// covered is the union [20,60] plus [80,90] clipped from [80,120].
		{ID: 3, Parent: 2, Name: "append", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "append", Start: 40, End: 60},
		{ID: 5, Parent: 2, Name: "append", Start: 80, End: 120},
		{ID: 6, Parent: 3, Name: "sync", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 30, 3: 10, 4: 20, 5: 40, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got := byName["append"]; math.Abs(got-70e-9) > 1e-15 {
		t.Errorf("self seconds of append = %v, want 70ns", got)
	}
	problems := checkNesting(spans)
	if len(problems) != 1 || !strings.Contains(problems[0], "span 5") {
		t.Errorf("nesting problems = %v, want exactly span 5 leaving its parent", problems)
	}
	if got := checkNesting([]span{{ID: 1, Start: 5, End: 0, Name: "open"}, {ID: 2, Parent: 9, Start: 0, End: 1}}); len(got) != 2 {
		t.Errorf("unended span and unknown parent: got %v", got)
	}
}

func TestCheckPartition(t *testing.T) {
	cols := []string{"a", "b", "c"}
	if err := checkPartition([][]string{{"b"}, {"c", "a"}}, cols); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	for name, layout := range map[string][][]string{
		"missing column": {{"a"}, {"b"}},
		"column twice":   {{"a", "b"}, {"b", "c"}},
		"foreign column": {{"a", "b"}, {"c", "d"}},
		"empty part":     {{"a", "b", "c"}, {}},
	} {
		if err := checkPartition(layout, cols); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := checkPartition([][]string{{"a"}}, nil); err == nil {
		t.Error("layout of an undeclared table accepted")
	}
	if layoutKey([][]string{{"b", "a"}, {"c"}}) != layoutKey([][]string{{"c"}, {"a", "b"}}) {
		t.Error("layoutKey depends on part or column order")
	}
}

func TestVerifierEnforcesTheOpClass(t *testing.T) {
	v := &verifier{columns: map[string][]string{"t": {"a", "b"}}, acks: newAcks()}
	body := func(cached bool) []byte {
		return mustJSON(map[string]any{"advice": []map[string]any{{
			"table": "t", "layout": [][]string{{"a"}, {"b"}}, "fingerprint": "f", "cached": cached,
		}}})
	}
	if _, err := v.check(clsAdviseMiss, 200, body(false)); err != nil {
		t.Errorf("miss answered as a miss: %v", err)
	}
	if _, err := v.check(clsAdviseMiss, 200, body(true)); err == nil {
		t.Error("a miss op answered from cache passed")
	}
	if _, err := v.check(clsAdviseHit, 200, body(false)); err == nil {
		t.Error("a hit op that searched passed")
	}
	if _, err := v.check(clsAdviseMiss, 503, []byte(`{"error":"x"}`)); err == nil {
		t.Error("a 503 passed")
	}
	// An evicted table: HTTP 200, verdict 404.
	evicted := mustJSON(map[string]any{"verdicts": []map[string]any{{"table": "t", "status": 404, "error": "not registered"}}})
	if _, err := v.check(clsObserve, 200, evicted); err == nil {
		t.Error("a 404 verdict inside a 200 response passed")
	}
	if got := v.acks.snapshot()["t"]; got.fingerprint != "f" || got.layout != "a|b" {
		t.Errorf("acknowledged state = %+v", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metric and
// workload lists of this package in step, name for name.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the code %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") {
				t.Errorf("%s %q: bad name, unit or direction", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the code", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v", bj.Paths)
	}

	// The result line carries exactly the listed metrics for each -trace.
	wr := &workloadResult{Attempted: 1}
	for trace, want := range map[int][]metricDef{0: endToEnd, 1: perLayer} {
		line := wr.resultLine(trace)
		if len(line.Metrics) != len(want) {
			t.Errorf("-trace %d prints %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if mv, ok := line.Metrics[d.name]; !ok || mv.Unit != d.unit {
				t.Errorf("-trace %d: metric %q missing or in unit %q", trace, d.name, mv.Unit)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{name: "ops_s", better: "higher", bound: 0.10}
	lower := metricDef{name: "p50_ms", better: "lower", bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want string
	}{
		{higher, 100, 120, verdictBetter},
		{higher, 100, 95, verdictWithin},
		{higher, 100, 89, verdictWorse},
		{higher, 100, 100, verdictWithin},
		{lower, 10, 8, verdictBetter},
		{lower, 10, 10.9, verdictWithin},
		{lower, 10, 11.1, verdictWorse},
		{lower, 0, 1, verdictWorse},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v judged %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsS float64, failed int) string {
		e2e := map[string]float64{"ops_s": opsS, "p50_ms": 2, "p95_ms": 9, "cpu_ms_per_op": 4, "peak_rss_mb": 50, "setup_s": 0.3}
		res := result{Workloads: []*workloadResult{{Name: "mixed", Attempted: 100, Failed: failed, FailedShare: float64(failed) / 100, EndToEnd: e2e}}}
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slower, failing := write("a.json", 300, 0), write("b.json", 290, 0), write("c.json", 200, 0), write("d.json", 300, 1)
	var out, errs bytes.Buffer
	if code := compareFiles(base, same, &out, &errs); code != 0 {
		t.Errorf("within-bound comparison exits %d\n%s", code, out.String())
	}
	if code := compareFiles(same, base, &out, &errs); code != 0 {
		t.Errorf("reverse within-bound comparison exits %d", code)
	}
	out.Reset()
	if code := compareFiles(base, slower, &out, &errs); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a third fewer ops/s exits %d\n%s", code, out.String())
	}
	if code := compareFiles(slower, base, &out, &errs); code != 0 {
		t.Errorf("an improvement exits %d", code)
	}
	if code := compareFiles(base, failing, &out, &errs); code != 1 {
		t.Errorf("a failed op exits %d", code)
	}
	if code := compareFiles(base, filepath.Join(dir, "absent.json"), &out, &errs); code != 2 {
		t.Errorf("a missing file exits %d", code)
	}
}

// TestSmoke runs every workload end to end at a fiftieth of its size:
// a real daemon subprocess, both passes, the kill-restart check, the span
// files. It checks the harness; the numbers mean nothing at this size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemon subprocesses")
	}
	t.Chdir("..") // the benchmark builds ./cmd/knivesd from the repository root
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "5", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exits %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloads))
	}
	if res.Env.NProc < 1 || res.Env.GoVersion == "" || res.Env.Seed != 5 || len(res.Env.Units) != len(workloads) {
		t.Errorf("environment block incomplete: %+v", res.Env)
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 || len(wr.GateFailures) != 0 {
			t.Errorf("%s: %d failed of %d, gates %v, failures %v", wr.Name, wr.Failed, wr.Attempted, wr.GateFailures, wr.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := wr.EndToEnd[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", wr.Name, d.name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", wr.Name, d.name, v)
			}
		}
		if wr.PerLayer["trace.ops"] < 1 {
			t.Errorf("%s: traced pass replayed no op", wr.Name)
		}
		raw, err := os.ReadFile(wr.SpanFile)
		if err != nil {
			t.Errorf("%s: %v", wr.Name, err)
			continue
		}
		var sf spanFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			t.Errorf("%s: span file: %v", wr.Name, err)
			continue
		}
		if len(sf.Spans) == 0 || len(checkNesting(sf.Spans)) != 0 {
			t.Errorf("%s: %d spans, nesting problems %v", wr.Name, len(sf.Spans), checkNesting(sf.Spans))
		}
	}
	// Layers a workload bypasses must read zero there.
	byName := make(map[string]*workloadResult)
	for _, wr := range res.Workloads {
		byName[wr.Name] = wr
	}
	for _, c := range []struct{ workload, metric string }{
		{"advise-search", "statestore.fsyncs_per_op"}, {"advise-search", "operator.exec_share"},
		{"observe-ingest", "algo.search_share"}, {"observe-ingest", "operator.exec_share"},
		{"query-scan", "statestore.fsyncs_per_op"}, {"query-scan", "algo.search_share"},
	} {
		if v := byName[c.workload].PerLayer[c.metric]; v != 0 {
			t.Errorf("%s bypasses the layer, yet %s = %v", c.workload, c.metric, v)
		}
	}
	// The last line of the output is the contract's result object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || last.Attempted < 1 {
		t.Errorf("last output line %q: %v", lines[len(lines)-1], err)
	}
}
