package hpbdc

// Acceptance gate for the overload-robustness stack (ISSUE 7, E-OVL):
// past saturation the defended serving path must hold goodput flat and
// the admitted tail bounded, the undefended control run must exhibit the
// metastable collapse, runs must be seed-deterministic, and shedding
// must never corrupt the store's linearizable history. Runs under -race
// in CI (scripts/verify.sh). Extra seeds: OVL_SEEDS="7,11,13".

import (
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/check"
	"repro/internal/kvstore"
	"repro/internal/scenario"
)

func TestOverloadAcceptance(t *testing.T) {
	mean, capacity := scenario.OverloadCalibrate()
	var deadline time.Duration // per-request deadline of every run below
	// run executes one 500ms overload run at mult x capacity and returns
	// the result plus the store it ran against (for history capture).
	run := func(seed uint64, mult float64, defended bool) (admission.SimResult, *kvstore.Store) {
		store := scenario.OverloadStore()
		cfg := scenario.OverloadConfig(store, scenario.OverloadNodes, mult, capacity, mean, 500*time.Millisecond, seed, defended)
		deadline = cfg.Deadline
		return admission.NewSim(cfg).Run(), store
	}
	for _, seed := range envSeeds(t, "OVL_SEEDS", 7) {
		// Defended sweep: goodput must be flat past saturation.
		byMult := map[float64]admission.SimResult{}
		var lastStore *kvstore.Store
		for _, mult := range []float64{0.5, 1, 2} {
			byMult[mult], lastStore = run(seed, mult, true)
		}
		peak := 0.0
		for _, res := range byMult {
			if res.GoodputPerSec > peak {
				peak = res.GoodputPerSec
			}
		}
		at2x := byMult[2]
		if at2x.GoodputPerSec < 0.9*peak {
			t.Fatalf("seed %d: defended goodput at 2x = %.0f/s, below 90%% of peak %.0f/s",
				seed, at2x.GoodputPerSec, peak)
		}
		// The admitted tail stays bounded: CoDel + the bounded queue keep
		// even p999 within a small multiple of the deadline (the control
		// run's tail, asserted below, runs two orders of magnitude past it).
		if p999 := time.Duration(at2x.AdmittedLatency.P999); p999 > 4*deadline {
			t.Fatalf("seed %d: admitted p999 %v exceeds 4x deadline %v", seed, p999, 4*deadline)
		}
		if at2x.ShedQuota+at2x.ShedQueue+at2x.ShedSojourn == 0 {
			t.Fatalf("seed %d: defended run at 2x shed nothing", seed)
		}

		// Control run at 2x: the metastable collapse. Unbudgeted retries
		// and no shedding drive the backlog far past the arrival window
		// and goodput through the floor.
		ctrl, _ := run(seed, 2, false)
		if ctrl.GoodputPerSec >= 0.5*at2x.GoodputPerSec {
			t.Fatalf("seed %d: control goodput %.0f/s did not collapse vs defended %.0f/s",
				seed, ctrl.GoodputPerSec, at2x.GoodputPerSec)
		}
		if ctrl.VirtualElapsed < 750*time.Millisecond {
			t.Fatalf("seed %d: control backlog drained in %v; expected the drain to run far past the 500ms arrival window",
				seed, ctrl.VirtualElapsed)
		}
		if ctrlTail := time.Duration(ctrl.AdmittedLatency.P999); ctrlTail < 10*deadline {
			t.Fatalf("seed %d: control p999 %v under 10x deadline — collapse regime not reached", seed, ctrlTail)
		}

		// Determinism: same seed, same config => identical checksums.
		again, _ := run(seed, 2, true)
		if again.Checksum != at2x.Checksum || again.Goodput != at2x.Goodput {
			t.Fatalf("seed %d: re-run diverged: checksum %x vs %x, goodput %d vs %d",
				seed, again.Checksum, at2x.Checksum, again.Goodput, at2x.Goodput)
		}

		// Shedding must not corrupt the store: the defended store's
		// concurrent history stays linearizable.
		h := check.CaptureHistory(lastStore, check.CaptureConfig{
			Clients: 4, Waves: 20, Keys: 6, Nodes: scenario.OverloadNodes,
			ReadFraction: 0.4, DeleteFraction: 0.1, Seed: seed,
			IsNotFound: func(err error) bool { return err == kvstore.ErrNotFound },
		})
		if verdict := check.Linearizable(h); !verdict.OK {
			t.Fatalf("seed %d: history not linearizable: %s", seed, verdict)
		}
	}
}
