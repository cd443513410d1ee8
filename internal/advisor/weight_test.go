package advisor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// A finite weight past MaxWeight is a 400 on /advise and on both /observe
// shapes, with an error body and nothing journaled; MaxWeight itself is
// served. Before the ceiling, 1e308 priced to ±Inf/NaN and every one of
// these answered 200 with an empty body, the observe batch already in the
// WAL.
func TestServerRejectsOverflowingWeights(t *testing.T) {
	st := durableStore(t, t.TempDir(), 8)
	svc, err := OpenService(Config{DriftWindow: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	advise := func(weight string) (int, string) {
		return post("/advise", `{"tables":[{"name":"events","rows":1000000,"columns":[`+
			`{"name":"a","kind":"char","size":100},{"name":"b","kind":"char","size":100}]}],`+
			`"queries":[{"id":"q1","weight":`+weight+`,"tables":{"events":["a","b"]}},{"id":"q2","tables":{"events":["b"]}}]}`)
	}
	observe := func(weight string) (int, string) {
		return post("/observe", `{"table":"events","queries":[{"attrs":["a"],"weight":`+weight+`}]}`)
	}
	observeBatched := func(weight string) (int, string) {
		return post("/observe", `{"batches":[{"table":"events","queries":[{"attrs":["a"],"weight":`+weight+`}]}]}`)
	}

	for _, w := range []string{"1e308", "9007199254740994", "1.7976931348623157e308"} {
		if code, body := advise(w); code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Errorf("/advise weight %s: %d %q, want 400 with an error body", w, code, body)
		}
	}
	if code, body := advise("9007199254740992"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/advise at MaxWeight: %d %q, want 200 with a JSON body", code, body)
	}

	seq := st.LastSeq()
	for _, w := range []string{"1e308", "9007199254740994"} {
		if code, body := observe(w); code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Errorf("/observe weight %s: %d %q, want 400 with an error body", w, code, body)
		}
		code, body := observeBatched(w)
		var resp ObserveResponse
		if code != http.StatusOK || json.Unmarshal([]byte(body), &resp) != nil ||
			len(resp.Verdicts) != 1 || resp.Verdicts[0].Status != http.StatusBadRequest {
			t.Errorf("batched /observe weight %s: %d %q, want one 400 verdict", w, code, body)
		}
	}
	if got := st.LastSeq(); got != seq {
		t.Errorf("rejected weights journaled %d records", got-seq)
	}
	if code, body := observe("9007199254740992"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/observe at MaxWeight: %d %q, want 200 with a JSON body", code, body)
	}

	// Whatever else cannot be rendered answers 500 with an error body.
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"ratio": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("unencodable response: %d %q, want 500 with an error body", rec.Code, rec.Body.String())
	}
}

// A table past schema.MaxTableBytes is a 400 on /advise with nothing
// journaled, whether the client spells it out or asks for a benchmark at a
// scale factor that grows one past it. Before the ceiling, the first
// priced its Row layout negative on HDD, and TPC-H at sf 1e15 advised a
// 1-row lineitem (the row count wrapped and clamped to 1).
func TestServerRejectsTablesPastTheCeiling(t *testing.T) {
	st := durableStore(t, t.TempDir(), 8)
	svc, err := OpenService(Config{DriftWindow: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	cols := make([]string, attrset.MaxAttrs)
	for i := range cols {
		cols[i] = fmt.Sprintf(`{"name":"c%02d","kind":"char","size":%d}`, i, 1<<20)
	}
	wide := fmt.Sprintf(`{"tables":[{"name":"huge","rows":%d,"columns":[%s]}],"queries":[{"id":"q1","tables":{"huge":["c00"]}}]}`,
		int64(math.MaxInt64), strings.Join(cols, ","))
	seq := st.LastSeq()
	for _, body := range []string{wide, `{"benchmark":"tpch","sf":1e15}`, `{"benchmark":"ssb","sf":1e15}`} {
		resp, err := ts.Client().Post(ts.URL+"/advise", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), `"error"`) {
			t.Errorf("/advise %.60s…: %d %q, want 400 with an error body", body, resp.StatusCode, b)
		}
	}
	if got := st.LastSeq(); got != seq {
		t.Errorf("rejected tables journaled %d records", got-seq)
	}
}

// TestWeightCeilingKeepsPricesFinite works MaxWeight's bound on the largest
// table the validators accept: 64 columns whose widths sum to
// schema.MaxRowWidth, and as many rows as schema.MaxTableBytes allows.
//
// Analytically: on a block device a partition costs seeks·ts + blocks·B/BW
// with 0 ≤ seeks ≤ blocks < 2^63 (the table-size ceiling keeps rows·size,
// and so every block count, inside int64), and on the cache device
// ⌈rows·size/L⌉·miss,
// whose sizes sum to the row size; so one query costs at most qcMax below,
// one weighted query qcMax·MaxWeight, and a workload at most that times
// the queries an 8 MiB body can carry (fewer than maxBodyBytes). O2P and
// Navathe's affinities are sums of weights, their bonds 64-term inner
// products of those, and a split's z a product of two sums of 64² cells.
// Every one of those bounds is finite.
//
// Empirically: advise and drift-check a workload at MaxWeight on that table
// under every preset device, and every price the service reports is finite,
// non-negative and encodes.
func TestWeightCeilingKeepsPricesFinite(t *testing.T) {
	cols := make([]schema.Column, attrset.MaxAttrs)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%02d", i), Kind: schema.KindChar, Size: schema.MaxRowWidth / attrset.MaxAttrs}
	}
	tab, err := schema.NewTable("huge", schema.MaxTableBytes/schema.MaxRowWidth, cols)
	if err != nil {
		t.Fatal(err)
	}
	if tab.RowSize() != schema.MaxRowWidth || tab.Bytes() != schema.MaxTableBytes {
		t.Fatalf("%d rows of %d bytes: not the largest admitted table", tab.Rows, tab.RowSize())
	}
	if _, err := schema.NewTable("huge", tab.Rows+1, cols); err == nil {
		t.Fatal("a table one row past the ceiling was admitted")
	}
	finite := func(what string, v float64) {
		t.Helper()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("%s = %v", what, v)
		}
	}
	price := func(what string, v float64) {
		t.Helper()
		finite(what, v)
		if v < 0 {
			t.Fatalf("%s = %v, a negative price", what, v)
		}
	}

	const maxQueries = maxBodyBytes
	cell := float64(MaxWeight) * maxQueries
	bond := attrset.MaxAttrs * cell * cell
	energy := attrset.MaxAttrs * attrset.MaxAttrs * cell
	finite("contribution bound", 4*bond)
	finite("split z bound", energy*energy)
	for _, name := range []string{"hdd", "ssd", "mm"} {
		dev, err := cost.DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var qcMax float64
		if dev.Pricing == cost.PricingCache {
			qcMax = (float64(tab.Rows)*float64(tab.RowSize())/float64(dev.CacheLineSize) + attrset.MaxAttrs) * dev.MissLatency
		} else {
			qcMax = attrset.MaxAttrs * float64(math.MaxInt64) * (dev.SeekTime + float64(dev.BlockSize)/dev.ReadBandwidth)
		}
		m, err := cost.NewDeviceModel(dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range [][]attrset.Set{partition.Row(tab).Parts, partition.Column(tab).Parts} {
			qc := m.QueryCost(tab, parts, tab.AllAttrs())
			price(name+" query cost", qc)
			if math.Abs(qc) > qcMax {
				t.Fatalf("%s: query cost %v above the bound %v", name, qc, qcMax)
			}
		}
		finite(name+" workload bound", qcMax*MaxWeight*maxQueries)

		// A registration and a window of observations at MaxWeight: pairs
		// and singles spread over all 64 columns.
		var queries []schema.TableQuery
		for i := 0; i < 96; i++ {
			a := (i * 7) % attrset.MaxAttrs
			attrs := attrset.Of(a, (a+1+i%5)%attrset.MaxAttrs)
			if i%3 == 0 {
				attrs = attrset.Single(a)
			}
			queries = append(queries, schema.TableQuery{ID: fmt.Sprintf("q%d", i), Weight: MaxWeight, Attrs: attrs})
		}
		svc := NewService(Config{Model: m, DriftWindow: 64})
		advice, _, err := svc.AdviseTable(schema.TableWorkload{Table: tab, Queries: queries[:32]})
		if err != nil {
			t.Fatal(err)
		}
		price(name+" advised cost", advice.Cost)
		price(name+" row cost", advice.RowCost)
		price(name+" column cost", advice.ColumnCost)
		for algo, c := range advice.PerAlgorithm {
			price(name+" "+algo+" cost", c)
		}
		if _, err := json.Marshal(toWire(advice, Fingerprint{}, false)); err != nil {
			t.Fatalf("%s: advice does not encode: %v", name, err)
		}
		for off := 32; off < len(queries); off += 16 {
			rep, err := svc.Observe(tab.Name, queries[off:off+16])
			if err != nil {
				t.Fatal(err)
			}
			finite(name+" drift ratio", rep.Ratio)
			if _, err := json.Marshal(rep); err != nil {
				t.Fatalf("%s: drift report does not encode: %v", name, err)
			}
		}
		svc.Close()
	}
}
