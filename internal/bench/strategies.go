package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/smt"
)

// StrategyRow compares the weighted-MaxSAT search strategies on the
// same synthesis workload (DESIGN.md §5 ablation 5).
type StrategyRow struct {
	Strategy string
	Time     time.Duration
	Devices  int
	// ViolatedWeight is the summed optimal objective cost across
	// instances; exact strategies must agree on it (device counts may
	// differ across equally-optimal solutions).
	ViolatedWeight int
	Networks       int
}

// MaxSATStrategies runs AED with the default strategy (smt.Auto, which
// searches core-guided on these cold solves) and with each forced MaxSAT
// strategy (linear descent, core-guided Fu–Malik) on the datacenter
// workload and reports average solve time and the devices-changed
// optimum. All strategies must agree on the optimum
// (they are exact); only their search time differs.
func MaxSATStrategies(w io.Writer, scale Scale) []StrategyRow {
	nNets := 4
	if scale == Full {
		nNets = 10
	}
	fleet := DCFleet(nNets+2, 63)[2:]
	objs, _ := objective.Named("min-devices")

	strategies := []struct {
		name string
		s    smt.Strategy
	}{
		{"default", smt.Auto},
		{"linear-descent", smt.LinearDescent},
		{"core-guided", smt.CoreGuided},
	}

	type acc struct {
		d        time.Duration
		devices  int
		violated int
		n        int
	}
	accs := make([]acc, len(strategies))

	for i, dc := range fleet {
		blocked := BlockingWorkload(dc.Net, dc.Topo, 2, int64(i)+71)
		if len(blocked) == 0 {
			continue
		}
		ps := append(RemainingBase(dc.Base, blocked), blocked...)
		for si, st := range strategies {
			opts := core.DefaultOptions()
			opts.Objectives = objs
			opts.Strategy = st.s
			res, err := core.SynthesizeContext(context.Background(), dc.Net, dc.Topo, ps, opts)
			if err != nil || res.Unsat() != nil || len(res.Violations) != 0 {
				continue
			}
			accs[si].d += res.Duration
			accs[si].devices += res.Diff.DevicesChanged
			accs[si].violated += res.ObjectiveViolations
			accs[si].n++
		}
	}

	var rows []StrategyRow
	fmt.Fprintln(w, "Ablation — MaxSAT search strategies (min-devices workload)")
	for si, st := range strategies {
		a := accs[si]
		if a.n == 0 {
			continue
		}
		row := StrategyRow{
			Strategy:       st.name,
			Time:           a.d / time.Duration(a.n),
			Devices:        a.devices,
			ViolatedWeight: a.violated,
			Networks:       a.n,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %-15s avg %10v   devices(total) %d   violated-weight %d   (n=%d)\n",
			row.Strategy, row.Time.Round(time.Millisecond), row.Devices,
			row.ViolatedWeight, row.Networks)
	}
	return rows
}
