// Package algorithms registers the vertical partitioning algorithms the
// paper evaluates, in its presentation order, behind one constructor.
package algorithms

import (
	"fmt"
	"strings"

	"knives/internal/algo"
	"knives/internal/algo/autopart"
	"knives/internal/algo/bruteforce"
	"knives/internal/algo/hillclimb"
	"knives/internal/algo/hyrise"
	"knives/internal/algo/navathe"
	"knives/internal/algo/o2p"
	"knives/internal/algo/trojan"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// All returns fresh instances of every evaluated algorithm in the paper's
// presentation order: AutoPart, HillClimb, HYRISE, Navathe, O2P, Trojan,
// BruteForce.
func All() []algo.Algorithm {
	return []algo.Algorithm{
		autopart.New(),
		hillclimb.New(),
		hyrise.New(),
		navathe.New(),
		o2p.New(),
		trojan.New(),
		bruteforce.New(),
	}
}

// Heuristics returns every algorithm except BruteForce.
func Heuristics() []algo.Algorithm {
	all := All()
	return all[:len(all)-1]
}

// ByName returns the named algorithm (case-sensitive, as reported by
// Name()), or an error listing the valid names.
func ByName(name string) (algo.Algorithm, error) {
	var names []string
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
		names = append(names, a.Name())
	}
	return nil, fmt.Errorf("algorithms: unknown algorithm %q (have %v)", name, names)
}

// Layout resolves a name to a layout for the workload and returns it with
// the name as reported: "Row" and "Column" (any case) name the baseline
// families, anything else an algorithm of All, which searches tw under m
// holding a process-wide search slot.
func Layout(tw schema.TableWorkload, name string, m cost.Model) (partition.Partitioning, string, error) {
	if tw.Table == nil {
		return partition.Partitioning{}, "", fmt.Errorf("algorithms: nil table")
	}
	switch strings.ToLower(name) {
	case "row":
		return partition.Row(tw.Table), "Row", nil
	case "column":
		return partition.Column(tw.Table), "Column", nil
	}
	a, err := ByName(name)
	if err != nil {
		return partition.Partitioning{}, "", err
	}
	algo.AcquireSearchSlot()
	defer algo.ReleaseSearchSlot()
	res, err := a.Partition(tw, m)
	if err != nil {
		return partition.Partitioning{}, "", fmt.Errorf("algorithms: %s on %s: %w", a.Name(), tw.Table.Name, err)
	}
	return res.Partitioning, a.Name(), nil
}
