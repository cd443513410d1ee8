package advisor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"knives/internal/algo"
	"knives/internal/algo/o2p"
	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// sixKnifeAdvice is the advice as the service computed it while the
// portfolio raced all six of the paper's heuristics: AutoPart, HillClimb,
// HYRISE, Navathe, O2P and Trojan, run one after another in that order,
// the first strict minimum against the Column baseline winning, a knife
// that declines the input (Trojan past its width) left out. Served advice
// must equal it wherever the ledger samples.
func sixKnifeAdvice(tw schema.TableWorkload, m cost.Model) (TableAdvice, error) {
	adv := TableAdvice{
		Table:        tw.Table,
		PerAlgorithm: make(map[string]float64),
		RowCost:      cost.WorkloadCost(m, tw, partition.Row(tw.Table).Parts),
		ColumnCost:   cost.WorkloadCost(m, tw, partition.Column(tw.Table).Parts),
	}
	adv.Algorithm = "Column"
	adv.Layout = partition.Column(tw.Table)
	adv.Cost = adv.ColumnCost
	for _, a := range algorithms.Heuristics() {
		res, err := a.Partition(tw, m)
		if errors.Is(err, algo.ErrDeclined) {
			continue
		}
		if err != nil {
			return TableAdvice{}, err
		}
		adv.PerAlgorithm[a.Name()] = res.Cost
		if res.Cost < adv.Cost {
			adv.Algorithm = a.Name()
			adv.Layout = res.Partitioning
			adv.Cost = res.Cost
		}
	}
	return adv, nil
}

// rawShadowCheck is the drift check as it was priced before the shadow was
// restated over the window's attribute-set summary: O2P over every retained
// query in log order, the shadow priced by O2P itself and the advised
// layout by cost.WorkloadCost, both over the log. On a window in which no
// attribute set repeats, the summary is the log and checkWindow must equal
// this bit for bit.
func rawShadowCheck(m cost.Model, t *schema.Table, log []schema.TableQuery, advised []attrset.Set) (shadow partition.Partitioning, shadowCost, advisedCost float64) {
	ptw := schema.TableWorkload{Table: t, Queries: log}
	res, err := o2p.New().Partition(ptw, m)
	if err != nil {
		panic(err)
	}
	return res.Partitioning, res.Cost, cost.WorkloadCost(m, ptw, advised)
}

// summaryReference is the restated shadow built the dumb way: the summary
// by a quadratic scan of the log, O2P over it, and both layouts priced by
// cost.WorkloadCost over the full log — no index, no per-set memo.
func summaryReference(m cost.Model, t *schema.Table, log []schema.TableQuery, advised []attrset.Set) windowCheck {
	var summary []schema.TableQuery
	for _, q := range log {
		seen := false
		for k := range summary {
			if summary[k].Attrs == q.Attrs {
				summary[k].Weight += q.Weight
				seen = true
				break
			}
		}
		if !seen {
			summary = append(summary, q)
		}
	}
	shadow := o2p.Layout(schema.TableWorkload{Table: t, Queries: summary})
	ptw := schema.TableWorkload{Table: t, Queries: log}
	return windowCheck{
		shadow:      shadow,
		shadowCost:  cost.WorkloadCost(m, ptw, shadow),
		advisedCost: cost.WorkloadCost(m, ptw, advised),
	}
}

// referenceRatio is the verdict's ratio from the two costs, spelled out
// again: the relative excess of the advised layout over the shadow, +Inf
// for a positive cost against a free shadow, 0 when both are free.
func referenceRatio(shadowCost, advisedCost float64) float64 {
	if shadowCost > 0 {
		return (advisedCost - shadowCost) / shadowCost
	}
	if advisedCost > 0 {
		return math.Inf(1)
	}
	return 0
}

// repeatFree reports whether no attribute set occurs twice in log.
func repeatFree(log []schema.TableQuery) bool {
	seen := make(map[attrset.Set]bool, len(log))
	for _, q := range log {
		if seen[q.Attrs] {
			return false
		}
		seen[q.Attrs] = true
	}
	return true
}

// referenceDecodeObserve is POST /observe's body decode as it was before the
// hand-written codec: encoding/json reading exactly one document, unknown
// fields and trailing data rejected — decodeBody over a body in memory.
func referenceDecodeObserve(body []byte) (ObserveRequest, error) {
	var req ObserveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("advisor: bad request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return req, errors.New("advisor: bad request body: trailing data after JSON document")
	}
	return req, nil
}

// referenceEncode is a 200 response body as writeJSON renders it with
// encoding/json, and the error a value it cannot render answers with.
func referenceEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("advisor: encoding response: %w", err)
	}
	return buf.Bytes(), nil
}
