package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/aed-net/aed/internal/simulate"
)

func newSim(zw ZooNetwork) *simulate.Simulator {
	return simulate.New(zw.Net, zw.Topo)
}

// skipIfShort gates the full-synthesis paper-figure sweeps: they take
// minutes even at Quick scale, which under the race detector blows the
// test binary's default timeout. `make race` (and therefore `make
// check`) runs with -short; the plain `make test` tier still runs
// everything.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-synthesis sweep skipped in -short mode")
	}
}

func TestFig3Renders(t *testing.T) {
	var buf bytes.Buffer
	Fig3(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 3a", "Figure 3b", "similarity", "90%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

func TestDCFleetShapes(t *testing.T) {
	fleet := DCFleet(6, 1)
	if len(fleet) != 6 {
		t.Fatalf("fleet size = %d", len(fleet))
	}
	for _, dc := range fleet {
		if len(dc.Net.Routers) != len(dc.Topo.Routers) {
			t.Error("config/topology router mismatch")
		}
	}
	// Networks with >=2 subnets must have base policies.
	last := fleet[len(fleet)-1]
	if len(last.Base) == 0 {
		t.Error("largest network should have inferred base policies")
	}
}

func TestZooWorkloadSupportsExactlyBase(t *testing.T) {
	zw := ZooWorkload(10, 4, 3, 7)
	if len(zw.Base) != 4 || len(zw.New) != 3 {
		t.Fatalf("base=%d new=%d", len(zw.Base), len(zw.New))
	}
	// Base policies hold; new policies (different destinations) are
	// mostly violated (the workload's whole point).
	sim := newSim(zw)
	for _, p := range zw.Base {
		if v := sim.Check(p); v != nil {
			t.Errorf("base policy should hold: %v", v)
		}
	}
	violated := 0
	for _, p := range zw.New {
		if sim.Check(p) != nil {
			violated++
		}
	}
	if violated == 0 {
		t.Error("at least some new policies should need synthesis")
	}
}

func TestBlockingWorkload(t *testing.T) {
	fleet := DCFleet(5, 3)
	dc := fleet[4]
	blocked := BlockingWorkload(dc.Net, dc.Topo, 2, 5)
	if len(blocked) != 2 {
		t.Fatalf("blocked = %d", len(blocked))
	}
	remaining := RemainingBase(dc.Base, blocked)
	if len(remaining) != len(dc.Base)-2 {
		t.Errorf("remaining = %d, want %d", len(remaining), len(dc.Base)-2)
	}
}

func TestFig9Quick(t *testing.T) {
	skipIfShort(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	res := Fig9(&buf, Quick)
	if len(res.DC) < 3 {
		t.Fatalf("fig9 DC rows = %d:\n%s", len(res.DC), buf.String())
	}
	byTool := map[string]Fig9Row{}
	for _, r := range res.DC {
		byTool[r.Tool] = r
	}
	aed, ok1 := byTool["aed(min-devices)"]
	man, ok2 := byTool["manual"]
	if !ok1 || !ok2 {
		t.Fatalf("missing tools:\n%s", buf.String())
	}
	// Headline shape: AED touches no more devices than manual updates.
	if aed.PctDevices > man.PctDevices+1e-9 {
		t.Errorf("AED %% devices (%.1f) should not exceed manual (%.1f)\n%s",
			aed.PctDevices, man.PctDevices, buf.String())
	}
}

func TestFig10Quick(t *testing.T) {
	skipIfShort(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows := Fig10(&buf, Quick)
	byTool := map[string]Fig10Row{}
	for _, r := range rows {
		byTool[r.Tool] = r
	}
	aed, ok1 := byTool["aed"]
	c, ok2 := byTool["cpr"]
	if !ok1 || !ok2 {
		t.Fatalf("missing tools:\n%s", buf.String())
	}
	if aed.FiltersAdded > c.FiltersAdded+1e-9 {
		t.Errorf("AED filters added (%.1f) should not exceed CPR (%.1f)\n%s",
			aed.FiltersAdded, c.FiltersAdded, buf.String())
	}
	if aed.TemplateViolationsPct > c.TemplateViolationsPct+1e-9 {
		t.Errorf("AED template violations (%.1f%%) should not exceed CPR (%.1f%%)\n%s",
			aed.TemplateViolationsPct, c.TemplateViolationsPct, buf.String())
	}
}

func TestFig14Quick(t *testing.T) {
	skipIfShort(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows := Fig14(&buf, Quick)
	if len(rows) == 0 {
		t.Fatalf("no fig14 rows:\n%s", buf.String())
	}
	for _, r := range rows {
		if r.ExtraDevices < 0 {
			// Split found a better solution than joint: both are
			// optimal w.r.t. their formulations, but joint should
			// never be strictly worse on devices.
			t.Logf("note: split beat joint by %d devices on %d routers", -r.ExtraDevices, r.Routers)
		}
	}
}

func TestBoolRankQuick(t *testing.T) {
	skipIfShort(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows := BoolRank(&buf, Quick)
	if len(rows) == 0 {
		t.Fatalf("no boolrank rows:\n%s", buf.String())
	}
	for _, r := range rows {
		if r.Speedup < 1.0 {
			t.Logf("note: rank encoding slower than wide on k=%d (%.2fx)", r.Policies, r.Speedup)
		}
	}
}

func TestPruningQuick(t *testing.T) {
	skipIfShort(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows := Pruning(&buf, Quick)
	if len(rows) == 0 {
		t.Fatalf("no pruning rows:\n%s", buf.String())
	}
}

func TestMaxSATStrategiesAgree(t *testing.T) {
	skipIfShort(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows := MaxSATStrategies(&buf, Quick)
	if len(rows) != 3 {
		t.Fatalf("rows = %d:\n%s", len(rows), buf.String())
	}
	// Exact strategies must agree on the optimal objective cost
	// (device totals may differ across equally-optimal solutions).
	for _, r := range rows[1:] {
		if r.Networks == rows[0].Networks && r.ViolatedWeight != rows[0].ViolatedWeight {
			t.Errorf("strategy %s optimum weight %d, %s found %d",
				r.Strategy, r.ViolatedWeight, rows[0].Strategy, rows[0].ViolatedWeight)
		}
	}
}
