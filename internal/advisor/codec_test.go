package advisor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"

	"knives/internal/operator"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/vfs"
)

// benchObserveBody is a body shaped like the observe-ingest benchmark's
// requests: perTable queries for each of the eight TPC-H tables, drawn
// round-robin from the table's registered workload, encoded by
// encoding/json.
func benchObserveBody(tb testing.TB, perTable int) []byte {
	tb.Helper()
	tpch := schema.TPCH(10)
	req := ObserveRequest{BatchID: "5-0"}
	for _, t := range tpch.Tables {
		reg := tpch.Workload.ForTable(t).Queries
		qs := make([]ObservedQry, perTable)
		for j := range qs {
			q := reg[j%len(reg)]
			qs[j] = ObservedQry{Attrs: t.AttrNames(q.Attrs), Weight: q.Weight}
		}
		req.Batches = append(req.Batches, TableObservation{Table: t.Name, Queries: qs})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// decodeCases are bodies at the edges of the accepted language; each must
// decode as encoding/json decodes it, error text included.
var decodeCases = []string{
	``, "  \n", `null`, ` null `, `{}`, `{"batches":null}`, `{"batches":[]}`, `{"batches":[null]}`,
	`{"batches":[{"table":"events","queries":[{"attrs":["a","b"]},{"attrs":["c","d"],"weight":2}]}]}`,
	`{"batches":[{"table":"events"}]}`,
	`{"batches":[{"table":"events","queries":[{"attrs":[]}]}]}`,
	`{"batch_id":"b1","batches":[{"table":"events","queries":[{"attrs":["a"],"weight":-1}]},{"table":"x","queries":[]}]}`,
	// Keys match case-insensitively, Unicode simple folding included.
	`{"BATCHES":[{"Table":"t","QUERIES":[{"ATTRS":["a"],"WeIgHt":2}]}],"Batch_ID":"x"}`,
	`{"batches":[{"table":"t","queries":[{"attrſ":["a"]}]}]}`,
	`{"batches":[{"table":"t","queries":[{"attrs":["a"]}]}]}`,
	// A later duplicate decodes into what the earlier one left.
	`{"batch_id":"a","batch_id":"b"}`,
	`{"batch_id":"a","batch_id":null}`,
	`{"batches":[{"table":"t","queries":[{"attrs":["a"],"weight":2}],"queries":[{"attrs":["b"]}]}]}`,
	`{"batches":[{"table":"t","queries":[{"attrs":["x","y"]}]}],"batches":[{"queries":[{"attrs":["a"]}]}],"batches":[{"queries":[{"attrs":[null,null]}]}]}`,
	`{"batches":[{"table":"t","queries":[{"attrs":["x","y","z"]},{"weight":3}]}],"batches":[{"queries":[]}],"batches":[null,{"table":"u"}]}`,
	`{"batches":[{"table":"t","queries":[{"attrs":["a"]}]}],"batches":null,"batches":[{}]}`,
	// null leaves strings and numbers alone.
	`{"batches":[{"table":null,"queries":[{"attrs":[null,"a"],"weight":null}]}]}`,
	// Strings: escapes, surrogates, invalid UTF-8.
	`{"batch_id":"𐀀\ud800x\udc00é\n\"\\\/\b\f\r\t` + "\u2028" + `<>&"}`,
	`{"batch_id":"😀\ud83d😀\udfff\ud800"}`,
	"{\"batches\":[{\"table\":\"t\xff\",\"queries\":[{\"attrs\":[\"a\xc3\",\"\xed\xa0\x80\",\"\xef\xbf\xbd\"]}]}]}",
	"{\"batch_id\":\"caf\xc3\xa9\u2029\xe2\x80\xa8\"}",
	// Numbers.
	`{"batches":[{"queries":[{"weight":1e400}]}]}`,
	`{"batches":[{"queries":[{"weight":-1e400}]}]}`,
	`{"batches":[{"queries":[{"weight":1e-400}]}]}`,
	`{"batches":[{"queries":[{"weight":-0}]}]}`,
	`{"batches":[{"queries":[{"weight":0.1e+2}]}]}`,
	`{"batches":[{"queries":[{"weight":12345678901234567890123}]}]}`,
	// Type errors; the first one is reported.
	`[]`, `"x"`, `1`, `-1.5e3`, `true`, `false`, `[1,{"a":[]}]`,
	`{"batch_id":1}`, `{"batch_id":true}`, `{"batch_id":[]}`, `{"batch_id":{}}`,
	`{"batches":{}}`, `{"batches":"x"}`, `{"batches":[1]}`, `{"batches":["x"]}`, `{"batches":[[]]}`,
	`{"batches":[{"table":[]}]}`, `{"batches":[{"table":1}]}`,
	`{"batches":[{"queries":{}}]}`, `{"batches":[{"queries":[1]}]}`, `{"batches":[{"queries":[true]}]}`,
	`{"batches":[{"queries":[{"attrs":"a"}]}]}`, `{"batches":[{"queries":[{"attrs":[1]}]}]}`,
	`{"batches":[{"queries":[{"attrs":[["a"]]}]}]}`, `{"batches":[{"queries":[{"attrs":[{}]}]}]}`,
	`{"batches":[{"queries":[{"weight":"1"}]}]}`, `{"batches":[{"queries":[{"weight":[]}]}]}`,
	`{"batches":[{"queries":[{"weight":{}}]}]}`, `{"batches":[{"queries":[{"weight":false}]}]}`,
	`{"batch_id":1,"nosuch":2}`, `{"nosuch":2,"batch_id":1}`,
	// Unknown fields.
	`{"nosuch":1}`, `{"table":"events","queries":[{"attrs":["a"]}]}`, `{"batches":[],"nosuchfield":1}`,
	`{"batches":[{"table":"t","nosuch":[1,{"a":[true,false,null,"x",-0.5e-3]}]}]}`,
	`{"batches":[{"queries":[{"attrs":["a"],"id":"q"}]}]}`,
	// Trailing data.
	`{} x`, `{}{}`, `{} `, "{}\n\t\r ", `null x`, `{}]`, `1 2`, `1x`, `[1 2]`,
	// Syntax errors beat type errors and unknown fields.
	`{`, `{"batches"`, `{"batches":`, `{"batches":}`, `{"batches":[,]}`, `{"batches":[1,]}`,
	`{"batches":[null,]}`, `{"a" 1}`, `{1:2}`, `{"batches":[]`, `{"batches":[] "x":1}`,
	`{"batches":1,}`, `{"nosuch":1,"batches":[}`, `{"nosuch":[1 2]}`, `{"nosuch":{"a":1,}}`,
	`{"nosuch":{"a" 1}}`, `{"nosuch":{,}}`, `{"nosuch":[}`, `{"nosuch":{]}`,
	"{\"batch_id\":\"\x01\"}", `{"batch_id":"\q"}`, `{"batch_id":"\u12g4"}`, `{"batch_id":"\u12`,
	`{"batch_id":"abc`, `{"batch_id":"a\`, `"\'"`,
	`01`, `-`, `-x`, `1.`, `1.x`, `1e`, `1e+`, `1ex`, `{"batches":[{"queries":[{"weight":01}]}]}`,
	`{"batches":[{"queries":[{"weight":-}]}]}`, `{"batches":[{"queries":[{"weight":.5}]}]}`,
	`{"batches":[{"queries":[{"weight":1.}]}]}`, `{"batches":[{"queries":[{"weight":+1}]}]}`,
	`tru`, `trux`, `nul`, `nulx`, `falsy`, `{"batch_id":nul}`, `{"batch_id":nulx}`,
	`x`, `}`, `]`, `,`, `:`, "\xff", `'a'`, `{"batches":[{"table":"t"}}`,
}

// checkDecode decodes body with the codec and with encoding/json: both
// reject with the same text, or both accept the same value.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, werr := referenceDecodeObserve(body)
	got, gerr := decodeObserve(string(body))
	switch {
	case werr != nil && gerr != nil:
		if g := "advisor: bad request body: " + gerr.Error(); g != werr.Error() {
			t.Errorf("%q: rejected with %q, encoding/json with %q", body, g, werr)
		}
	case werr != nil || gerr != nil:
		t.Errorf("%q: codec error %v, encoding/json error %v", body, gerr, werr)
	case !reflect.DeepEqual(got, want):
		t.Errorf("%q: decoded %#v, encoding/json %#v", body, got, want)
	}
}

func TestObserveDecodeMatchesReference(t *testing.T) {
	for _, body := range decodeCases {
		checkDecode(t, []byte(body))
	}
	checkDecode(t, benchObserveBody(t, 32))
	// The nesting limit: 10000 open containers are a value, 10001 are not.
	for _, depth := range []int{9999, 10000} {
		checkDecode(t, []byte(`{"nosuch":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
		checkDecode(t, []byte(strings.Repeat(`[`, depth+1)+strings.Repeat(`]`, depth+1)))
	}
}

// Nothing a request decodes into outlives it by aliasing the body: the
// table names and the batch ID, which the dedup window keeps, are copies.
func TestObserveDecodeKeepsNoBodyAlive(t *testing.T) {
	body := string(benchObserveBody(t, 4))
	req, err := decodeObserve(body)
	if err != nil {
		t.Fatal(err)
	}
	inBody := func(s string) bool {
		if len(s) == 0 {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
		return p >= lo && p < lo+uintptr(len(body))
	}
	if inBody(req.BatchID) {
		t.Error("the batch ID aliases the body")
	}
	for _, b := range req.Batches {
		if inBody(b.Table) {
			t.Errorf("table name %q aliases the body", b.Table)
		}
	}
	if a := req.Batches[0].Queries[0].Attrs[0]; !inBody(a) {
		t.Errorf("attribute name %q was copied out of the body", a)
	}
}

// encodeCase builds one of each encoded value from fuzzable parts: a name
// for every string (HTML, U+2028 and invalid UTF-8 reach the escaper), two
// floats for every number, and shape bits choosing nil, empty or full
// layouts, maps and lists.
func encodeCase(name string, x, y float64, shape uint8) (ObserveResponse, AdviseResponse, TableAdviceWire) {
	adv := TableAdviceWire{
		Table: name, Algorithm: "HillClimb" + name,
		Cost: x, RowCost: y, ColumnCost: x * y,
		ImprovementOverRow: 1 - x/y, ImprovementOverColumn: x - y,
		Fingerprint: strings.Repeat("ab", 32), Cached: shape&1 != 0,
	}
	switch shape >> 1 & 3 {
	case 1:
		adv.Layout = [][]string{}
	case 2:
		adv.Layout = [][]string{nil, {}, {name}}
	case 3:
		adv.Layout = [][]string{{"a", "b"}, {name, "<c>"}}
	}
	switch shape >> 3 & 3 {
	case 1:
		adv.PerAlgorithm = map[string]float64{}
	case 2:
		adv.PerAlgorithm = map[string]float64{name: x, "HillClimb": y, "AutoPart": 1e21, "O2P": 1e-7}
	case 3:
		adv.PerAlgorithm = map[string]float64{"b": y, "a": x, "c": -0.0, "d": 5e-324, "e": math.MaxFloat64}
	}
	verdicts := []TableObserveVerdict{
		{Table: name, Status: 404, Error: "advisor: table is not registered: " + name},
		{Table: name, Status: 200, Drift: DriftReport{Table: name, Ratio: x, Threshold: y,
			Drifted: shape&1 != 0, Recomputed: shape&2 != 0, Observed: int64(shape) << 40, Recomputes: -int64(shape)},
			Advice: adv},
	}
	obs := ObserveResponse{Duplicate: shape&32 != 0}
	adv2 := AdviseResponse{}
	switch shape >> 6 {
	case 1:
		obs.Verdicts, adv2.Advice = []TableObserveVerdict{}, []TableAdviceWire{}
	case 2:
		obs.Verdicts, adv2.Advice = verdicts, []TableAdviceWire{adv}
	case 3:
		obs.Verdicts, adv2.Advice = verdicts[1:], []TableAdviceWire{adv, {}, adv}
	}
	return obs, adv2, adv
}

// executedCase builds a /query and a /replay response from the same parts
// as encodeCase: name reaches every plan and operator name beside the
// executor's own → π ⋈ σ, the two floats every measure, and the shape bits
// choose nil, empty or full reports, layouts, pipelines and operators, and
// which omitempty fields are set.
func executedCase(name string, x, y float64, shape uint8) (QueryResponse, ReplayResponse) {
	_, _, adv := encodeCase(name, x, y, shape)
	ops := []operator.OpStats{
		{Op: "scan", Name: "scan{0,4}" + name, RowsOut: int64(shape) << 20,
			Seeks: int64(shape & 1), BytesRead: int64(shape&2) << 40, CacheLines: int64(shape & 4), ReconJoins: int64(shape & 8), SimTime: x},
		{Op: "select", Name: "σ(a10<1263)", RowsIn: 7, RowsOut: -3, SimTime: y},
		{Op: "join", Name: "⋈" + name, ReconJoins: 5},
		{Op: "project", Name: "π{0,4}", Seeks: -1, BytesRead: 2, CacheLines: 3, ReconJoins: 4, SimTime: x * y},
	}
	q := QueryReplayWire{ID: name, Weight: y, Seeks: -1, BytesRead: int64(shape) << 33, ReconJoins: 3,
		Checksum: fmt.Sprintf("%016x", uint64(shape)*0x9e3779b97f4a7c15), MeasuredSeconds: x, PredictedSeconds: y}
	pipes := []PipelineWire{
		{QueryReplayWire: q, Plan: "scan{0,4} → σ(a10<1263) → ⋈ → π{0,4}" + name, ResultRows: int64(shape), Operators: ops},
		{QueryReplayWire: QueryReplayWire{ID: "q2"}, Plan: name},
		{Operators: []operator.OpStats{}},
	}
	exec := TableExecWire{
		Table: name, Algorithm: adv.Algorithm, Layout: adv.Layout, Model: "hdd" + name,
		RowsReplayed: int64(shape), RowsFull: 6_000_000, MeasuredSeconds: x, PredictedSeconds: y,
		Exact: shape&2 != 0, MaxAbsDelta: x - y, BytesRead: int64(shape) << 50, Seeks: -int64(shape), ReconJoins: 1,
		Fingerprint: adv.Fingerprint, Cached: shape&1 != 0,
	}
	if shape&1 != 0 {
		exec.Selection = "a10<1263" + name
	}
	if shape&32 != 0 {
		exec.ExecMode = "vector"
	}
	replay := TableReplayWire{
		Table: exec.Table, Algorithm: exec.Algorithm, Layout: exec.Layout, Model: exec.Model,
		RowsReplayed: exec.RowsReplayed, RowsFull: exec.RowsFull, MeasuredSeconds: y, PredictedSeconds: x,
		Exact: exec.Exact, MaxAbsDelta: y - x, BytesRead: exec.BytesRead, Seeks: exec.Seeks, ReconJoins: exec.ReconJoins,
		Fingerprint: exec.Fingerprint, Cached: exec.Cached,
	}
	switch shape >> 3 & 3 {
	case 1:
		exec.Pipelines, replay.Queries = []PipelineWire{}, []QueryReplayWire{}
	case 2:
		exec.Pipelines, replay.Queries = pipes, []QueryReplayWire{q, {}, q}
	case 3:
		exec.Pipelines, replay.Queries = pipes[:1], []QueryReplayWire{q}
	}
	var qr QueryResponse
	var rr ReplayResponse
	switch shape >> 6 {
	case 1:
		qr.Reports, rr.Reports = []TableExecWire{}, []TableReplayWire{}
	case 2:
		qr.Reports, rr.Reports = []TableExecWire{exec}, []TableReplayWire{replay}
	case 3:
		qr.Reports, rr.Reports = []TableExecWire{exec, {}, exec}, []TableReplayWire{replay, {}}
	}
	return qr, rr
}

// checkEncode encodes the values encodeCase and executedCase build with the
// codec and with encoding/json: the same bytes, or the same error.
func checkEncode(t *testing.T, name string, x, y float64, shape uint8) {
	t.Helper()
	obs, adv, one := encodeCase(name, x, y, shape)
	query, replay := executedCase(name, x, y, shape)
	for _, c := range []struct {
		v   any
		app func([]byte) ([]byte, error)
	}{
		{obs, func(b []byte) ([]byte, error) { return appendObserveResponse(b, &obs) }},
		{adv, func(b []byte) ([]byte, error) { return appendAdviseResponse(b, &adv) }},
		{one, func(b []byte) ([]byte, error) { return appendAdvice(b, &one) }},
		{query, func(b []byte) ([]byte, error) { return appendQueryResponse(b, &query) }},
		{replay, func(b []byte) ([]byte, error) { return appendReplayResponse(b, &replay) }},
	} {
		want, werr := referenceEncode(c.v)
		got, gerr := c.app(nil)
		switch {
		case werr != nil || gerr != nil:
			if gerr == nil || werr == nil || "advisor: encoding response: "+gerr.Error() != werr.Error() {
				t.Errorf("%T(%q, %v, %v, %d): codec error %v, encoding/json error %v", c.v, name, x, y, shape, gerr, werr)
			}
		case !bytes.Equal(got, want):
			t.Errorf("%T(%q, %v, %v, %d):\ncodec:\n%s\nencoding/json:\n%s", c.v, name, x, y, shape, got, want)
		}
	}
}

// encodeFloats are the numbers at the edges of encoding/json's float
// format: the 'e' switch below 1e-6 and from 1e21, the e-07 cleanup, the
// extremes of float64, negative zero, and the values it refuses.
var encodeFloats = []float64{0, math.Copysign(0, -1), 0.5, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e-10, 1e20, 1e21, -1e21,
	123456789.125, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

func TestObserveEncodeMatchesReference(t *testing.T) {
	names := []string{"", "events", "<script>&amp;", "a\u2028b\u2029c", "bad\xffutf8\xc3", "\x00\x01\x1f\"\\/\b\f\n\r\t\x7f", "é€😀", "→ π ⋈ σ"}
	for i, name := range names {
		for j, x := range encodeFloats {
			y := encodeFloats[(i+3*j)%len(encodeFloats)]
			for shape := 0; shape < 256; shape += 1 + i {
				checkEncode(t, name, x, y, uint8(shape))
			}
		}
	}
}

// A non-finite price answers 500 with encoding/json's error for the first
// one in document order, not a 200 with a partial body.
func TestObserveEncodeRefusesNonFinite(t *testing.T) {
	resp := ObserveResponse{Verdicts: []TableObserveVerdict{{
		Drift:  DriftReport{Ratio: math.Inf(1)},
		Advice: TableAdviceWire{Cost: math.NaN()},
	}}}
	rec := httptest.NewRecorder()
	writeWire(rec, httptest.NewRequest(http.MethodGet, "/", nil), func(b []byte) ([]byte, error) {
		return appendObserveResponse(b, &resp)
	})
	want := `{"error":"advisor: encoding response: json: unsupported value: +Inf"}` + "\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("got %d %q, want 500 %q", rec.Code, rec.Body, want)
	}

	// In a /query report, an operator's time comes before a later report's
	// delta.
	query := QueryResponse{Reports: []TableExecWire{
		{Pipelines: []PipelineWire{{Operators: []operator.OpStats{{SimTime: 1}, {SimTime: math.Inf(-1)}}}}},
		{MaxAbsDelta: math.NaN()},
	}}
	rec = httptest.NewRecorder()
	writeWire(rec, httptest.NewRequest(http.MethodPost, "/query", nil), func(b []byte) ([]byte, error) {
		return appendQueryResponse(b, &query)
	})
	want = `{"error":"advisor: encoding response: json: unsupported value: -Inf"}` + "\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("/query: got %d %q, want 500 %q", rec.Code, rec.Body, want)
	}
}

// FuzzObserveWireVsReference holds the codec to encoding/json: decoding
// never panics, and it rejects what encoding/json rejects with the same
// text or accepts what it accepts with an equal value; encoding the values
// encodeCase and executedCase build yields encoding/json's bytes or its
// error.
func FuzzObserveWireVsReference(f *testing.F) {
	for i, body := range decodeCases {
		f.Add([]byte(body), "events", encodeFloats[i%len(encodeFloats)], 0.5, uint8(i))
	}
	f.Add(benchObserveBody(f, 32), "<&>\u2028\xff", math.Inf(1), math.NaN(), uint8(0xff))
	f.Add(benchObserveBody(f, 1), "", 1e-7, 1e21, uint8(0x9a))
	f.Add([]byte(`{}`), "→ π ⋈ σ <>&\u2028\xed\xa0\x80", 9.99e-7, 1e21, uint8(0xf7))
	f.Fuzz(func(t *testing.T, body []byte, name string, x, y float64, shape uint8) {
		checkDecode(t, body)
		checkEncode(t, name, x, y, shape)
	})
}

// tpchServer serves an in-memory service on which every TPC-H table is
// advised, as the observe-ingest benchmark's daemon is prewarmed.
func tpchServer(tb testing.TB) *Server {
	tb.Helper()
	svc := NewService(Config{})
	if err := svc.Prewarm(schema.TPCH(10)); err != nil {
		tb.Fatal(err)
	}
	return NewServer(svc)
}

// serveObserve sends one /observe body through srv.
func serveObserve(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body)))
	return rec
}

// benchObserveResponse is the response a prewarmed server answers body
// with.
func benchObserveResponse(tb testing.TB, body []byte) ObserveResponse {
	tb.Helper()
	rec := serveObserve(tpchServer(tb), body)
	var resp ObserveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("%d %v: %s", rec.Code, err, rec.Body)
	}
	return resp
}

// BenchmarkObserveWire times one bench-shaped /observe request's wire work
// both ways: decoding the 8×32 body, and encoding the eight verdicts that
// answer it.
func BenchmarkObserveWire(b *testing.B) {
	body := benchObserveBody(b, 32)
	resp := benchObserveResponse(b, body)
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			if _, err := referenceDecodeObserve(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			if _, err := decodeObserve(string(body)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := referenceEncode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			bp := getBuf()
			out, err := appendObserveResponse(*bp, &resp)
			if err != nil {
				b.Fatal(err)
			}
			putBuf(bp, out)
		}
	})
}

// benchQueryRequest is a body shaped like the query-scan benchmark's: TPC-H
// lineitem at SF 10 with its 17 registered queries, 20,000 sampled rows,
// the vector label, and a σ on l_shipdate.
func benchQueryRequest() QueryRequest {
	tpch := schema.TPCH(10)
	tw := tpch.Workload.ForTable(tpch.Table("lineitem"))
	t := tw.Table
	ts := TableSpec{Name: t.Name, Rows: t.Rows}
	for _, c := range t.Columns {
		ts.Columns = append(ts.Columns, ColumnSpec{Name: c.Name, Kind: c.Kind.String(), Size: c.Size})
	}
	req := QueryRequest{Tables: []TableSpec{ts}, MaxRows: 20000, Seed: 1, Exec: "vector",
		Selection: &SelectionSpec{Table: t.Name, Column: "l_shipdate", Bound: 1263}}
	for _, q := range tw.Queries {
		req.Queries = append(req.Queries, QuerySpec{ID: q.ID, Weight: q.Weight, Tables: map[string][]string{t.Name: t.AttrNames(q.Attrs)}})
	}
	return req
}

// benchQueryResponse is the response a fresh server answers
// benchQueryRequest with.
func benchQueryResponse(tb testing.TB) QueryResponse {
	tb.Helper()
	body, err := json.Marshal(benchQueryRequest())
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewServer(NewService(Config{})).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("%d %v: %s", rec.Code, err, rec.Body)
	}
	return resp
}

// BenchmarkQueryWire times encoding one bench-shaped /query response both
// ways: 17 pipelines of the lineitem report.
func BenchmarkQueryWire(b *testing.B) {
	resp := benchQueryResponse(b)
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := referenceEncode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			bp := getBuf()
			out, err := appendQueryResponse(*bp, &resp)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
			putBuf(bp, out)
		}
	})
}

// decodeAllocs and handlerAllocs are the allocation budgets below: the
// counts measured on go1.24 (17 and 136; encoding/json took 1482 and 1717)
// plus a slack of about 15 % for runtime and library changes.
const (
	decodeAllocs  = 20
	handlerAllocs = 156
)

// The wire's allocation budgets, on the observe-ingest benchmark's 8×32
// body: the decoder allocates per table entry and never per query or name,
// so twice the queries cost no more allocations; the encoder allocates
// nothing once its pooled buffer is warm; and one whole /observe request
// through Server.ServeHTTP on a prewarmed in-memory service stays within
// handlerAllocs.
func TestObserveWireAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled buffers at random under -race")
	}
	decode := func(body []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := decodeObserve(string(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	body := benchObserveBody(t, 32)
	d32, d64 := decode(body), decode(benchObserveBody(t, 64))
	if d64 > d32 {
		t.Errorf("decoding 8×64 queries took %v allocations, 8×32 took %v: the decoder allocates per query", d64, d32)
	}
	if d32 > decodeAllocs {
		t.Errorf("decoding 8×32 queries took %v allocations, budget %d", d32, decodeAllocs)
	}

	srv := tpchServer(t)
	var resp ObserveResponse
	if rec := serveObserve(srv, body); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		t.Fatalf("%d: %s", rec.Code, rec.Body)
	}
	enc := testing.AllocsPerRun(50, func() {
		bp := getBuf()
		b, err := appendObserveResponse(*bp, &resp)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(bp, b)
	})
	if enc != 0 {
		t.Errorf("encoding eight verdicts took %v allocations, want 0", enc)
	}

	// Past the first requests the tracker windows are full and every
	// request is the steady state's: ingest, trim, one drift check per
	// table, eight verdicts.
	for range 8 {
		serveObserve(srv, body)
	}
	h := testing.AllocsPerRun(20, func() {
		if rec := serveObserve(srv, body); rec.Code != http.StatusOK {
			t.Fatalf("%d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("allocations: decode %v (8×64: %v), encode %v, handler %v", d32, d64, enc, h)
	if h > handlerAllocs {
		t.Errorf("one /observe request took %v allocations, budget %d", h, handlerAllocs)
	}
}

// The bench-shaped lineitem /query report, 17 pipelines of σ, π and ⋈
// operators, fits a pooled buffer, and encoding it into a warm one
// allocates nothing.
func TestQueryWireAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled buffers at random under -race")
	}
	resp := benchQueryResponse(t)
	if n := len(resp.Reports[0].Pipelines); n != 17 {
		t.Fatalf("the lineitem report has %d pipelines, want 17", n)
	}
	var size int
	enc := testing.AllocsPerRun(50, func() {
		bp := getBuf()
		b, err := appendQueryResponse(*bp, &resp)
		if err != nil {
			t.Fatal(err)
		}
		size = len(b)
		putBuf(bp, b)
	})
	t.Logf("the /query body: %d bytes, %v allocations", size, enc)
	if size > maxPooledBuf {
		t.Fatalf("the /query body is %d bytes, more than a pooled buffer keeps (%d)", size, maxPooledBuf)
	}
	if enc != 0 {
		t.Errorf("encoding the %d-byte /query report took %v allocations, want 0", size, enc)
	}
	want, err := referenceEncode(resp)
	if got, gerr := appendQueryResponse(nil, &resp); gerr != nil || err != nil || !bytes.Equal(got, want) {
		t.Errorf("the /query report encodes to %d bytes (%v), encoding/json to %d (%v)", len(got), gerr, len(want), err)
	}
}

// A traced request's tree shows where the wire's time goes: /observe
// decodes, ingests (the WAL commit beneath it) and encodes, /advise
// decodes and encodes around its search, and /query encodes its report
// last.
func TestWireSpansInRequestTrace(t *testing.T) {
	fsys, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := statestore.Open(fsys, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var logged bytes.Buffer
	srv := NewServerWith(svc, ServerConfig{SlowRequest: time.Nanosecond, SlowLog: log.New(&logged, "", 0)})
	post := func(path, body string) string {
		t.Helper()
		logged.Reset()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return logged.String()
	}
	// spans returns the span names of a rendered trace, each indented by
	// its depth: what follows the offset column, "+%-10s ".
	spans := func(trace string) []string {
		var names []string
		for _, line := range strings.Split(trace, "\n")[1:] {
			if i := strings.Index(line, " +"); i >= 0 {
				off := strings.Fields(line[i:])[0]
				pad := max(0, 11-utf8.RuneCountInString(off))
				names = append(names, line[i+1+len(off)+pad+1:])
			}
		}
		return names
	}
	advise := spans(post("/advise", `{`+transcriptEvents+`}`))
	if len(advise) < 3 || advise[0] != "wire decode" || advise[len(advise)-1] != "wire encode" {
		t.Errorf("/advise trace %q: want wire decode first and wire encode last", advise)
	}
	observe := spans(post("/observe", transcriptDrift))
	want := []string{"wire decode", "ingest events", "  wal commit (1 callers, 1 events)", "wire encode"}
	if !slices.Equal(observe, want) {
		t.Errorf("/observe trace %q, want %q", observe, want)
	}
	query := spans(post("/query", `{`+transcriptDated+`,"max_rows":600,"selection":{"table":"dated","column":"ts","bound":900}}`))
	if len(query) < 2 || query[len(query)-1] != "wire encode" {
		t.Errorf("/query trace %q: want wire encode last", query)
	}
}
