package algorithms

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"knives/internal/attrset"
	"knives/internal/partition"
	"knives/internal/schema"
)

// A Pin is one line of a layouts golden (this package's
// testdata/layouts.golden, written and checked by its tests): the layout
// that every knife in Knives returns for Table's workload in Workload,
// priced under Device. Suites that execute layouts read pins instead of
// searching again.
//
// A line is "<workload> <table> <device> <cost> <knife>,<knife>... <layout>",
// where cost is the layout's workload cost in shortest round-trip form and
// layout is partition.Partitioning's rendering: canonical parts of column
// names, "[a b | c]".
type Pin struct {
	// Workload is a benchmark name ("TPC-H", "SSB"), or one with "+drift"
	// for its drifted fact-table mix.
	Workload, Table, Device string
	Knives                  []string
	Cost                    float64
	// Parts are the layout's parts as column names, in canonical order.
	Parts [][]string
}

// Pins are a layouts golden's lines, in file order.
type Pins []Pin

// Find returns the pin naming knife for t in workload under device, with
// its layout over t.
func (ps Pins) Find(workload string, t *schema.Table, device, knife string) (Pin, partition.Partitioning, error) {
	for _, p := range ps {
		if p.Workload == workload && p.Table == t.Name && p.Device == device && slices.Contains(p.Knives, knife) {
			layout, err := p.layout(t)
			return p, layout, err
		}
	}
	return Pin{}, partition.Partitioning{}, fmt.Errorf("algorithms: no pin for %s on %s/%s under %s", knife, workload, t.Name, device)
}

// layout resolves the pin's parts against t.
func (p Pin) layout(t *schema.Table) (partition.Partitioning, error) {
	parts := make([]attrset.Set, len(p.Parts))
	for i, names := range p.Parts {
		for _, name := range names {
			a := t.AttrIndex(name)
			if a < 0 {
				return partition.Partitioning{}, fmt.Errorf("algorithms: pin names %s.%s, which the table lacks", p.Table, name)
			}
			parts[i] = parts[i].Add(a)
		}
	}
	return partition.New(t, parts)
}

// ReadPins parses the layouts golden at path.
func ReadPins(path string) (Pins, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("algorithms: %w", err)
	}
	defer f.Close()
	var pins Pins
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := parsePin(line)
		if err != nil {
			return nil, fmt.Errorf("algorithms: %s:%d: %w", path, n, err)
		}
		pins = append(pins, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("algorithms: %s: %w", path, err)
	}
	return pins, nil
}

func parsePin(line string) (Pin, error) {
	fields := strings.SplitN(line, " ", 6)
	if len(fields) != 6 {
		return Pin{}, fmt.Errorf("%d fields, want 6", len(fields))
	}
	c, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return Pin{}, err
	}
	layout, ok := strings.CutPrefix(fields[5], "[")
	if ok {
		layout, ok = strings.CutSuffix(layout, "]")
	}
	if !ok {
		return Pin{}, fmt.Errorf("layout %q is not bracketed", fields[5])
	}
	p := Pin{Workload: fields[0], Table: fields[1], Device: fields[2], Cost: c, Knives: strings.Split(fields[4], ",")}
	for _, part := range strings.Split(layout, " | ") {
		p.Parts = append(p.Parts, strings.Fields(part))
	}
	return p, nil
}
