package experiments

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// Determinism means the worker count never shows in a byte: every report,
// its wall-clock cells masked, must equal its golden file at GOMAXPROCS=1
// too. The search gate and BruteForce's walker budget are sized from
// GOMAXPROCS at package init, so on more than one core this test
// re-executes its own binary with GOMAXPROCS=1 and reads each artifact's
// verdict from it. That process runs the registry in reverse order, and
// paperReport runs each experiment on first use, so a report that depends
// on which experiment filled a suite cache first fails there as well. On
// one core this test is that process and runs once.
//
// The parent first runs its timed experiments (the masked ones), so no
// child competes with their wall clock. It then starts the child and
// yields (t.Parallel), so the child runs beside the rest of the parent's
// pass over the paper. The child stops itself before the parent's own
// -test.timeout, and is killed if this test ends first.
func TestExperimentsAreDeterministic(t *testing.T) {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		t.Log("GOMAXPROCS=1: reverse registry order, no re-exec")
		for _, id := range slices.Backward(ids) {
			t.Run(id, func(t *testing.T) {
				diffGolden(t, id, masked(paperReport(t, id)).String())
			})
		}
		return
	}
	if *updateGolden {
		t.Log("-update: no GOMAXPROCS=1 pass; run again without -update to check it")
		return
	}
	for _, id := range ids {
		if masks[id] != nil {
			paperReport(t, id)
		}
	}
	// The child gets the run pattern, -test.v and a timeout only: never
	// -update, never a cover profile.
	args := []string{"-test.run=^TestExperimentsAreDeterministic$", "-test.v"}
	if d, ok := t.Deadline(); ok {
		args = append(args, "-test.timeout="+(time.Until(d)*9/10).String())
	}
	cmd := exec.CommandContext(t.Context(), os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Parallel()
	err := cmd.Wait()
	// Prefixed, so no line of the child's reads as a result of the parent's.
	log := "GOMAXPROCS=1| " + strings.ReplaceAll(strings.TrimSpace(out.String()), "\n", "\nGOMAXPROCS=1| ")
	if err != nil {
		t.Errorf("the GOMAXPROCS=1 pass failed (%v):\n%s", err, log)
	} else {
		t.Logf("the GOMAXPROCS=1 pass:\n%s", log)
	}
	passed := map[string]bool{}
	for _, m := range regexp.MustCompile(`--- PASS: TestExperimentsAreDeterministic/(\S+)`).FindAllStringSubmatch(out.String(), -1) {
		passed[m[1]] = true
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			if !passed[id] {
				t.Errorf("%s did not pass at GOMAXPROCS=1; the child's output is logged above", id)
			}
		})
	}
}
