package hpbdc

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// runStreamFT runs the windowed-aggregation pipeline over a deterministic
// generated stream, optionally checkpointing and optionally under a chaos
// schedule of stream-crash/stream-restore events driven off the runner's
// virtual-time ticks.
func runStreamFT(t *testing.T, seed uint64, ckptEvery int, spec string) ([]stream.Result, *metrics.Registry) {
	t.Helper()
	const workers = 4
	src := stream.NewGeneratorSource(seed, 12_000, 32, time.Millisecond, 4*time.Millisecond)
	r := stream.NewRunner(stream.RunConfig{
		Pipeline:        stream.Config{Workers: workers, Window: 200 * time.Millisecond},
		CheckpointEvery: ckptEvery,
		WatermarkEvery:  150,
		WatermarkLag:    5 * time.Millisecond,
		TickEvery:       250,
	}, src)
	if spec != "" {
		sched, err := chaos.Load(spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		ctl := chaos.New(sched, seed, chaos.Targets{Nodes: workers, Stream: r}, r.Metrics())
		r.OnTick(ctl.Tick)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatalf("stream run failed: %v", err)
	}
	return out, r.Metrics()
}

// TestStreamExactlyOnce is the headline acceptance test for streaming
// fault tolerance: a fixed-seed run that crashes workers mid-window —
// twice, with recovery from the last committed checkpoint and source-tail
// replay — must produce output byte-identical to the fault-free run, and
// the recovery machinery (checkpoints, replay, sink dedup) must actually
// have fired.
func TestStreamExactlyOnce(t *testing.T) {
	sched := `
6 stream-crash *
14 stream-restore *
20 stream-crash *
26 stream-restore *
`
	for _, seed := range envSeeds(t, "STREAM_SEEDS", 7) {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			clean, cleanReg := runStreamFT(t, seed, 0, "")
			if len(clean) == 0 {
				t.Fatal("clean run produced no panes")
			}
			if v := cleanReg.Counter("panes_deduped").Value(); v != 0 {
				t.Fatalf("clean run deduped %d panes", v)
			}

			// Checkpointing alone must not perturb the output.
			ckptOnly, ckptReg := runStreamFT(t, seed, 2_000, "")
			if !reflect.DeepEqual(ckptOnly, clean) {
				t.Fatal("checkpointing a fault-free run changed its output")
			}
			if v := ckptReg.Counter("checkpoints_committed").Value(); v < 5 {
				t.Fatalf("checkpoints_committed = %d, want >= 5", v)
			}

			faulted, reg := runStreamFT(t, seed, 2_000, sched)
			if !reflect.DeepEqual(faulted, clean) {
				t.Fatalf("faulted output diverged from clean run: %d vs %d panes",
					len(faulted), len(clean))
			}
			// Byte-identical, not just structurally equal.
			if fmt.Sprint(faulted) != fmt.Sprint(clean) {
				t.Fatal("faulted output not byte-identical to clean run")
			}
			for name, min := range map[string]int64{
				"stream_worker_crashes":    2,
				"stream_recoveries":        2,
				"recovery_replayed_events": 1,
				"panes_deduped":            1,
				"checkpoints_committed":    1,
				"checkpoint_bytes":         1,
			} {
				if v := reg.Counter(name).Value(); v < min {
					t.Errorf("%s = %d, want >= %d", name, v, min)
				}
			}
		})
	}
}

// TestStreamExactlyOnceWithoutCheckpoints covers the degenerate recovery
// path: with checkpointing disabled, recovery rolls back to the implicit
// genesis checkpoint and replays the whole stream — slower, but still
// exactly-once.
func TestStreamExactlyOnceWithoutCheckpoints(t *testing.T) {
	clean, _ := runStreamFT(t, 7, 0, "")
	faulted, reg := runStreamFT(t, 7, 0, "8 stream-crash *\n16 stream-restore *\n")
	if !reflect.DeepEqual(faulted, clean) {
		t.Fatal("genesis-replay recovery diverged from clean run")
	}
	if v := reg.Counter("recovery_replayed_events").Value(); v < 2_000 {
		t.Fatalf("recovery_replayed_events = %d, want a full-prefix replay", v)
	}
	if v := reg.Counter("panes_deduped").Value(); v < 1 {
		t.Fatalf("panes_deduped = %d", v)
	}
}
