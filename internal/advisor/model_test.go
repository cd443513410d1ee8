package advisor

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"knives/internal/cost"
)

// The wire-layer validation satellite: every device-parameter override a
// request can carry is validated — NaN, infinite, and non-positive values
// resolve to ErrBadModel, which the HTTP layer maps to 400.
func TestModelSpecValidation(t *testing.T) {
	svc := NewService(Config{})
	bad := []ModelSpec{
		{Name: "tape"},
		{Name: "hdd", BlockBytes: -1},
		{Name: "hdd", BufferBytes: -8},
		{Name: "hdd", CacheLine: -64},
		{Name: "ssd", ReadBW: -1},
		{Name: "ssd", ReadBW: math.NaN()},
		{Name: "ssd", ReadBW: math.Inf(1)},
		{Name: "mm", MissSeconds: math.Inf(-1)},
		{Name: "mm", SeekSeconds: math.NaN()},
		{Name: "hdd", WriteBW: -2},
	}
	for _, spec := range bad {
		spec := spec
		if _, _, err := svc.modelFor(&spec); !errors.Is(err, ErrBadModel) {
			t.Errorf("modelFor(%+v) = %v, want ErrBadModel", spec, err)
		}
	}

	// A nil or zero spec is the daemon's configured model.
	m, key, err := svc.modelFor(nil)
	if err != nil || m != svc.model || key != svc.modelKey {
		t.Errorf("nil spec resolved to %v/%q (%v)", m, key, err)
	}
	if _, _, err := svc.modelFor(&ModelSpec{}); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}

	// A named spec resolves the preset; overrides apply; overrides without
	// a name overlay the daemon's own device.
	ssd, key, err := svc.modelFor(&ModelSpec{Name: "ssd", BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.(*cost.DeviceModel).Device()
	if dev.Name != "SSD" || dev.BufferSize != 1<<20 {
		t.Errorf("ssd spec resolved to %+v", dev)
	}
	if key == svc.modelKey {
		t.Error("SSD spec shares the default model's cache key")
	}
	local, _, err := svc.modelFor(&ModelSpec{SeekSeconds: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if d := local.(*cost.DeviceModel).Device(); d.Name != "HDD" || d.SeekTime != 1e-3 {
		t.Errorf("nameless override resolved to %+v", d)
	}
}

// Bad model specs on the wire must answer 400, and a valid SSD spec must
// flow through /advise and /replay end to end — with the replay exact at
// zero tolerance on the SSD device, and cached separately from the same
// workload priced on the daemon's default HDD.
func TestServerModelSpecEndToEnd(t *testing.T) {
	_, svc, client := newTestServer(t, Config{})
	ctx := context.Background()

	for _, spec := range []*ModelSpec{
		{Name: "tape"},
		{Name: "hdd", BufferBytes: -1},
		{Name: "ssd", ReadBW: -5},
	} {
		req := eventsRequest()
		req.Model = spec
		_, err := client.Advise(ctx, req)
		if err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Errorf("advise with bad spec %+v: err = %v, want 400", spec, err)
		}
		rreq := ReplayRequest{Tables: req.Tables, Queries: req.Queries, MaxRows: 500, Model: spec}
		if _, err := client.Replay(ctx, rreq); err == nil || !strings.Contains(err.Error(), "status 400") {
			t.Errorf("replay with bad spec %+v: err = %v, want 400", spec, err)
		}
	}

	// Advise the same workload under the default (HDD) and under SSD: both
	// succeed, and they occupy separate cache entries (an SSD answer must
	// never be served from the HDD entry or vice versa).
	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatal(err)
	}
	ssdReq := eventsRequest()
	ssdReq.Model = &ModelSpec{Name: "ssd"}
	first, err := client.Advise(ctx, ssdReq)
	if err != nil {
		t.Fatal(err)
	}
	if first.Advice[0].Cached {
		t.Error("first SSD advise claims a cache hit — it shared the HDD entry")
	}
	again, err := client.Advise(ctx, ssdReq)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Advice[0].Cached {
		t.Error("repeated SSD advise missed its own cache entry")
	}

	// A per-request model is a what-if question: it must not register or
	// reset the drift tracker the default-model advice created. If it did,
	// the observed count would restart and the tracked advice would flip to
	// the SSD answer.
	obs := ObservedQry{Attrs: []string{"a", "b"}}
	first2, err := observeVia(ctx, client, "events", obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Advise(ctx, ssdReq); err != nil {
		t.Fatal(err)
	}
	after, err := observeVia(ctx, client, "events", obs)
	if err != nil {
		t.Fatal(err)
	}
	if after.Drift.Observed != first2.Drift.Observed+1 {
		t.Errorf("observed count %d after SSD what-if advise, want %d — the tracker was reset",
			after.Drift.Observed, first2.Drift.Observed+1)
	}

	// The SSD replay: measured must equal predicted bit for bit on the
	// flash device too.
	rep, err := client.Replay(ctx, ReplayRequest{
		Tables:  ssdReq.Tables,
		Queries: ssdReq.Queries,
		MaxRows: 2_000,
		Model:   &ModelSpec{Name: "ssd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Reports[0]
	if r.Model != "SSD" {
		t.Errorf("replay priced on %s, want SSD", r.Model)
	}
	if !r.Exact {
		t.Errorf("SSD replay not exact: measured %v predicted %v", r.MeasuredSeconds, r.PredictedSeconds)
	}
	if svc.Stats().Replays == 0 {
		t.Error("replay not counted")
	}
}
