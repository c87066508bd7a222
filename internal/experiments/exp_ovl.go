package experiments

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/kvstore"
	"repro/internal/scenario"
)

// EOVLOverload sweeps offered load from half to twice the measured
// saturation point through the admission stack (per-tenant WFQ quotas,
// CoDel shedding, retry budgets, deadline propagation) and through the
// undefended legacy path. The defended rows hold goodput flat and tail
// latency bounded past saturation; the control rows show the metastable
// collapse — goodput falls as offered load rises, and the run's virtual
// elapsed time blows past the arrival window as the backlog drains long
// after clients stopped caring. A chaos row replays the "overload"
// preset (burst + tenant flood + degraded node) against the defended
// stack, and the store's linearizability is checked after shedding.
func EOVLOverload(s Scale) *Table {
	mean, capacity := scenario.OverloadCalibrate()
	dur := pick(s, 300*time.Millisecond, time.Second)
	t := &Table{
		ID:    "E-OVL",
		Title: "Overload: goodput vs offered load, admission stack on/off",
		Note: fmt.Sprintf("3 YCSB tenants on an 8-node R2W2 store (measured mean %v => capacity %.0f ops/s); "+
			"deadline 50x mean; control = unbounded FIFO, no budgets, no deadline propagation",
			mean.Round(100*time.Nanosecond), capacity),
		Cols: []string{"offered", "mode", "arrivals", "goodput/s", "p99", "p999", "shed%", "timeouts", "vtime", "linear"},
	}

	addRow := func(label, mode string, res admission.SimResult, linear string) {
		shedPct := 0.0
		if res.Offered > 0 {
			shedPct = 100 * float64(res.ShedQuota+res.ShedQueue+res.ShedSojourn) / float64(res.Offered)
		}
		t.AddRow(label, mode,
			fmt.Sprintf("%d", res.Offered),
			fmt.Sprintf("%.0f", res.GoodputPerSec),
			time.Duration(res.AdmittedLatency.P99).Round(time.Microsecond).String(),
			time.Duration(res.AdmittedLatency.P999).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", shedPct),
			fmt.Sprintf("%d", res.Timeouts),
			res.VirtualElapsed.Round(time.Millisecond).String(),
			linear)
	}

	for _, mult := range []float64{0.5, 1, 1.5, 2} {
		label := fmt.Sprintf("%.1fx", mult)

		// Defended run, with a post-run linearizability capture against
		// the same (shed-scarred) store.
		store := scenario.OverloadStore()
		res := admission.NewSim(scenario.OverloadConfig(store, scenario.OverloadNodes, mult, capacity, mean, dur, 7, true)).Run()
		h := check.CaptureHistory(store, check.CaptureConfig{
			Clients: 4, Waves: 10, Keys: 6, Nodes: scenario.OverloadNodes,
			ReadFraction: 0.4, DeleteFraction: 0.1,
			Seed:       uint64(100 + 10*mult),
			IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
		})
		verdict := check.Linearizable(h)
		diff := check.Diff{Name: fmt.Sprintf("E-OVL/%s/admission", label), OK: verdict.OK, Compared: verdict.Ops}
		if !verdict.OK {
			diff.Details = []string{verdict.String()}
		}
		recordCheck(diff)
		addRow(label, "admission", res, verdictCell(diff))

		// Control run: same arrivals, no defense stack.
		ctrl := scenario.OverloadConfig(scenario.OverloadStore(), scenario.OverloadNodes, mult, capacity, mean, dur, 7, false)
		addRow(label, "control", admission.NewSim(ctrl).Run(), "-")
	}

	// Chaos row: the "overload" preset (3x burst, 5x tenant-0 flood, one
	// degraded node) against the defended stack at 1x offered load. The
	// preset's virtual ticks are paced so every event lands inside the
	// arrival window.
	store := scenario.OverloadStore()
	cfg := scenario.OverloadConfig(store, scenario.OverloadNodes, 1, capacity, mean, dur, 7, true)
	cfg.TickEvery = dur / 12
	var ctl *chaos.Controller
	cfg.Tick = func(step int64) { ctl.AdvanceTo(step) }
	sim := admission.NewSim(cfg)
	sched, err := chaos.Preset("overload", scenario.OverloadNodes)
	if err != nil {
		panic(err)
	}
	ctl = chaos.New(sched, 7, chaos.Targets{Nodes: scenario.OverloadNodes, Overload: sim, Network: store.Config().Fabric}, store.Reg)
	res := sim.Run()
	h := check.CaptureHistory(store, check.CaptureConfig{
		Clients: 4, Waves: 10, Keys: 6, Nodes: scenario.OverloadNodes,
		ReadFraction: 0.4, DeleteFraction: 0.1,
		Seed:       777,
		IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
	})
	verdict := check.Linearizable(h)
	diff := check.Diff{Name: "E-OVL/1.0x/chaos", OK: verdict.OK, Compared: verdict.Ops}
	if !verdict.OK {
		diff.Details = []string{verdict.String()}
	}
	recordCheck(diff)
	addRow("1.0x", "adm+chaos", res, verdictCell(diff))

	return t
}
