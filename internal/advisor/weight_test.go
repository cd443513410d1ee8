package advisor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// A finite weight past MaxWeight is a 400 on /advise and a 400 verdict on
// /observe, with an error and nothing journaled; MaxWeight itself is
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
	observe := func(weight string) (int, string, ObserveResponse) {
		code, body := post("/observe", `{"batches":[{"table":"events","queries":[{"attrs":["a"],"weight":`+weight+`}]}]}`)
		var resp ObserveResponse
		if code == http.StatusOK && json.Unmarshal([]byte(body), &resp) != nil {
			t.Fatalf("/observe weight %s: %q is not JSON", weight, body)
		}
		return code, body, resp
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
		if code, body, resp := observe(w); code != http.StatusOK ||
			len(resp.Verdicts) != 1 || resp.Verdicts[0].Status != http.StatusBadRequest || resp.Verdicts[0].Error == "" {
			t.Errorf("/observe weight %s: %d %q, want one 400 verdict with an error", w, code, body)
		}
	}
	if got := st.LastSeq(); got != seq {
		t.Errorf("rejected weights journaled %d records", got-seq)
	}
	if code, body, resp := observe("9007199254740992"); code != http.StatusOK ||
		len(resp.Verdicts) != 1 || resp.Verdicts[0].Status != http.StatusOK {
		t.Fatalf("/observe at MaxWeight: %d %q, want one 200 verdict", code, body)
	}

	// Whatever else cannot be rendered answers 500 with an error body.
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"ratio": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("unencodable response: %d %q, want 500 with an error body", rec.Code, rec.Body.String())
	}
}

// A positive weight below MinWeight is a 400 on /advise and a 400 verdict
// on /observe, with nothing journaled; MinWeight itself is served, and so is
// 0 (which means 1). Before the floor, 5e-324 on an /observe whose advised
// layout reads a query's column beside another priced the shadow's cost to
// 0 and the advised one's to 5e-324: the drift ratio went +Inf, which JSON
// cannot render, and the request answered 500 with the batch already in the
// WAL.
func TestServerRejectsUnderflowingWeights(t *testing.T) {
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
	// 300k rows of two 100-byte columns on the HDD: column a alone prices
	// about 0.35 s, a and b together about 0.7 s, so 5e-324 (2^-1074) times
	// the first rounds to 0 and times the second to 5e-324.
	advise := func(weight string) (int, string) {
		return post("/advise", `{"tables":[{"name":"events","rows":300000,"columns":[`+
			`{"name":"a","kind":"char","size":100},{"name":"b","kind":"char","size":100}]}],`+
			`"queries":[{"id":"q1","weight":`+weight+`,"tables":{"events":["a","b"]}}]}`)
	}
	// A batch of a whole window (8) of queries on a alone: the registration
	// leaves the window, and the shadow reads a alone.
	observe := func(weight string) (int, string, ObserveResponse) {
		q := `{"attrs":["a"],"weight":` + weight + `}`
		code, body := post("/observe", `{"batches":[{"table":"events","queries":[`+strings.Repeat(q+",", 7)+q+`]}]}`)
		var resp ObserveResponse
		if code == http.StatusOK && json.Unmarshal([]byte(body), &resp) != nil {
			t.Fatalf("/observe weight %s: %q is not JSON", weight, body)
		}
		return code, body, resp
	}

	for _, w := range []string{"5e-324", "1e-300", "1e-17"} {
		if code, body := advise(w); code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Errorf("/advise weight %s: %d %q, want 400 with an error body", w, code, body)
		}
	}
	code, body := advise("100")
	var advice AdviseResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &advice) != nil ||
		len(advice.Advice) != 1 || len(advice.Advice[0].Layout) != 1 {
		t.Fatalf("/advise: %d %q, want 200 advising a and b together", code, body)
	}
	seq := st.LastSeq()
	for _, w := range []string{"5e-324", "1e-300", "1e-17"} {
		if code, body, resp := observe(w); code != http.StatusOK ||
			len(resp.Verdicts) != 1 || resp.Verdicts[0].Status != http.StatusBadRequest || resp.Verdicts[0].Error == "" {
			t.Errorf("/observe weight %s: %d %q, want one 400 verdict with an error", w, code, body)
		}
	}
	if got := st.LastSeq(); got != seq {
		t.Errorf("rejected weights journaled %d records", got-seq)
	}
	for _, w := range []string{strconv.FormatFloat(MinWeight, 'g', -1, 64), "0"} {
		if code, body, resp := observe(w); code != http.StatusOK ||
			len(resp.Verdicts) != 1 || resp.Verdicts[0].Status != http.StatusOK {
			t.Fatalf("/observe weight %s: %d %q, want one 200 verdict", w, code, body)
		}
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

// A device override past cost.Device.Validate's domain is a 400 before any
// search runs, on every endpoint that takes a model, with nothing cached.
// Before the bounds, the first three priced +Inf after the search and
// answered 500 with the advice already cached, and a what-if /replay on
// 2^62-byte blocks crashed the process allocating its first page.
func TestServerRejectsDevicesPastTheDomain(t *testing.T) {
	svc := NewService(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	workload := `"tables":[{"name":"events","rows":1000000,"columns":[` +
		`{"name":"a","kind":"char","size":100},{"name":"b","kind":"char","size":100}]}],` +
		`"queries":[{"id":"q1","tables":{"events":["a","b"]}},{"id":"q2","tables":{"events":["b"]}}]`
	for _, model := range []string{
		`{"seek_s":1e308}`,
		`{"read_bw":1e-300}`,
		`{"name":"mm","miss_s":1e308}`,
		`{"block_bytes":4611686018427387904}`,
	} {
		for _, path := range []string{"/advise", "/replay", "/query"} {
			body := `{` + workload + `,"model":` + model + `}`
			if path != "/advise" {
				body = `{` + workload + `,"max_rows":100,"model":` + model + `}`
			}
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), ErrBadModel.Error()) {
				t.Errorf("%s model %s: %d %q, want 400 with the model error", path, model, resp.StatusCode, b)
			}
		}
	}
	if st := svc.Stats(); st.Cached != 0 || st.Searches != 0 || st.CachedReplays != 0 {
		t.Errorf("rejected models left %d advice entries, %d searches, %d reports", st.Cached, st.Searches, st.CachedReplays)
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
// under every preset device, and under each preset at the edges of
// cost.Device.Validate's domain, and every price the service reports is
// finite, non-negative and encodes.
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
	// Every preset, and every preset at the edges of the admitted device
	// domain: the slowest seek, miss and bandwidths, with the smallest and
	// with the largest blocks and cache lines.
	slowest := cost.Device{ReadBandwidth: cost.MinBandwidth, WriteBandwidth: cost.MinBandwidth,
		SeekTime: cost.MaxSeekTime, MissLatency: cost.MaxMissLatency}
	smallest, largest := slowest, slowest
	smallest.BlockSize, smallest.CacheLineSize = 1, 1
	largest.BlockSize, largest.CacheLineSize = cost.MaxBlockSize, cost.MaxBlockSize
	for _, preset := range []string{"hdd", "ssd", "mm"} {
		for _, edge := range []struct {
			name      string
			overrides cost.Device
		}{{"", cost.Device{}}, {" slowest, smallest blocks", smallest}, {" slowest, largest blocks", largest}} {
			name := preset + edge.name
			base, err := cost.DeviceByName(preset)
			if err != nil {
				t.Fatal(err)
			}
			dev := base.WithOverrides(edge.overrides)
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
				rep, err := observe(svc, tab, queries[off:off+16])
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
}

// TestWeightFloorKeepsPricesNormal works MinWeight's bound from below, on
// a table whose every price is as small as prices get: one row of two
// 1-byte columns.
//
// Analytically: a query that reads anything reads at least one block of at
// least one byte at no more than cost.MaxBandwidth, or misses at least one
// line at no less than cost.MinMissLatency, so it prices at least 2^-60 s;
// weighted at MinWeight that is at least 2^-113, and so is every sum of
// such terms: a normal float. (The upper side is
// TestWeightCeilingKeepsPricesFinite's.)
//
// Empirically: under every preset, and under each preset at the fast edges
// of cost.Device.Validate's domain — MaxBandwidth, MinMissLatency, no seek,
// 1-byte blocks and lines — every query prices at least 2^-60 s in the row
// and the column layout, and a workload advised and drift-checked at
// MinWeight reports normal prices and finite drift ratios that encode.
func TestWeightFloorKeepsPricesNormal(t *testing.T) {
	tab, err := schema.NewTable("tiny", 1, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 1}, {Name: "b", Kind: schema.KindChar, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	normal := func(what string, v float64) {
		t.Helper()
		if !(v >= 0x1p-1022) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v, not a normal positive float", what, v)
		}
	}
	fastest := cost.Device{ReadBandwidth: cost.MaxBandwidth, WriteBandwidth: cost.MaxBandwidth,
		MissLatency: cost.MinMissLatency, BlockSize: 1, CacheLineSize: 1}
	for _, preset := range []string{"hdd", "ssd", "mm"} {
		for _, fast := range []bool{false, true} {
			dev, err := cost.DeviceByName(preset)
			if err != nil {
				t.Fatal(err)
			}
			name := preset
			if fast {
				dev = dev.WithOverrides(fastest)
				dev.SeekTime = 0
				name += " fastest, smallest blocks, no seek"
			}
			m, err := cost.NewDeviceModel(dev)
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range [][]attrset.Set{partition.Row(tab).Parts, partition.Column(tab).Parts} {
				for _, q := range []attrset.Set{attrset.Of(0), attrset.Of(1), attrset.Of(0, 1)} {
					qc := m.QueryCost(tab, parts, q)
					if qc < 0x1p-60 {
						t.Fatalf("%s: query %v over %v costs %v, below 2^-60", name, q, parts, qc)
					}
					normal(name+" weighted query cost", MinWeight*qc)
				}
			}

			// Register a and b together, then observe a window of queries
			// on a alone, all at MinWeight.
			svc := NewService(Config{Model: m, DriftWindow: 8})
			advice, _, err := svc.AdviseTable(schema.TableWorkload{Table: tab,
				Queries: []schema.TableQuery{{ID: "q1", Weight: MinWeight, Attrs: attrset.Of(0, 1)}}})
			if err != nil {
				t.Fatal(err)
			}
			normal(name+" advised cost", advice.Cost)
			normal(name+" row cost", advice.RowCost)
			normal(name+" column cost", advice.ColumnCost)
			for algo, c := range advice.PerAlgorithm {
				normal(name+" "+algo+" cost", c)
			}
			if _, err := json.Marshal(toWire(advice, Fingerprint{}, false)); err != nil {
				t.Fatalf("%s: advice does not encode: %v", name, err)
			}
			window := make([]schema.TableQuery, 8)
			for i := range window {
				window[i] = schema.TableQuery{ID: fmt.Sprintf("o%d", i), Weight: MinWeight, Attrs: attrset.Of(0)}
			}
			rep, err := observe(svc, tab, window)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(rep.Ratio, 0) || math.IsNaN(rep.Ratio) {
				t.Fatalf("%s: drift ratio %v", name, rep.Ratio)
			}
			if _, err := json.Marshal(rep); err != nil {
				t.Fatalf("%s: drift report does not encode: %v", name, err)
			}
			svc.Close()
		}
	}
}

// A what-if buffer of 2^62 bytes is inside the device domain, and the
// executor must split it the way the cost model does: the cost model takes
// buffer × row size in 128 bits, and a storage cursor that took it in int64
// wrapped to a tiny buffer share, measured more seeks than it predicted and
// answered "exact": false.
func TestHugeBufferReplaysExactly(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewService(Config{})))
	defer ts.Close()
	workload := `"tables":[{"name":"events","rows":1000000,"columns":[` +
		`{"name":"a","kind":"int","size":4},{"name":"b","kind":"char","size":100}]}],` +
		`"queries":[{"id":"q1","tables":{"events":["a","b"]}},{"id":"q2","tables":{"events":["b"]}}]`
	for _, path := range []string{"/replay", "/query"} {
		body := `{` + workload + `,"max_rows":300,"model":{"buffer_bytes":4611686018427387904}}`
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Reports []struct {
				Exact bool `json:"exact"`
			} `json:"reports"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(got.Reports) != 1 {
			t.Fatalf("%s: %d, %d reports, %v", path, resp.StatusCode, len(got.Reports), err)
		}
		if !got.Reports[0].Exact {
			t.Errorf("%s with a 2^62-byte buffer: exact false, want true", path)
		}
	}
}
