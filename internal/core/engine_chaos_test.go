package core

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/topology"
)

func TestFlakyNodeQuarantinedThenJobSucceeds(t *testing.T) {
	e := testEngine(t, 4, Config{})
	// Node 1 fails every task placed on it (the chaos "flaky" event).
	e.SetNodeFailProb(1, 1)
	got := collectInts(t, e, sliceSource(e, ints(200), 8))
	sort.Ints(got)
	want := ints(200)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if v := e.Reg.Counter("quarantined_nodes").Value(); v < 1 {
		t.Fatalf("quarantined_nodes = %d, want >= 1", v)
	}
	if v := e.Reg.Counter("task_retries").Value(); v < 2 {
		t.Fatalf("task_retries = %d, want >= 2", v)
	}
	if v := e.Reg.Counter("task_backoffs").Value(); v < 1 {
		t.Fatalf("task_backoffs = %d, want >= 1", v)
	}
	if v := e.Reg.Counter("backoff_ns_total").Value(); v <= 0 {
		t.Fatalf("backoff_ns_total = %d, want > 0", v)
	}
}

func TestSpeculativeBackupWinsForStraggler(t *testing.T) {
	e := testEngine(t, 4, Config{
		Speculation:    true,
		SpeculationMin: 2 * time.Millisecond,
	})
	// Node 3 stalls every task by far more than the straggler threshold.
	if err := e.Cluster().SetSlowdown(3, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := collectInts(t, e, sliceSource(e, ints(400), 8))
	if len(got) != 400 {
		t.Fatalf("got %d rows, want 400", len(got))
	}
	if v := e.Reg.Counter("speculative_launches").Value(); v < 1 {
		t.Fatalf("speculative_launches = %d, want >= 1", v)
	}
	if v := e.Reg.Counter("speculative_wins").Value(); v < 1 {
		t.Fatalf("speculative_wins = %d, want >= 1", v)
	}
}

// A losing copy can run its task after the wave resolved: node 3's
// queued primaries wait for a slot behind stalled ones while their
// backups win elsewhere. Once Run has returned, such a copy must not
// write into the caller's result.
func TestLateSpeculativeCopyLeavesResultAlone(t *testing.T) {
	e := testEngine(t, 4, Config{
		Speculation:    true,
		SpeculationMin: 2 * time.Millisecond,
	})
	if err := e.Cluster().SetSlowdown(3, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	parts, err := e.Run(sliceSource(e, ints(400), 16))
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		parts[i] = nil // the caller owns the result now
	}
	time.Sleep(200 * time.Millisecond) // node 3 drains its queued copies
	for i, rows := range parts {
		if rows != nil {
			t.Fatalf("partition %d was rewritten after Run returned", i)
		}
	}
}

func TestJobDeadlineAbortsCleanly(t *testing.T) {
	e := testEngine(t, 4, Config{JobDeadline: 15 * time.Millisecond})
	for _, n := range e.Cluster().LiveNodes() {
		if err := e.Cluster().SetSlowdown(n, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err := e.Run(sliceSource(e, ints(100), 8))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// The abort must not wait out the 200ms task stalls.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("deadline abort took %v", elapsed)
	}
	if v := e.Reg.Counter("jobs_deadline_aborted").Value(); v != 1 {
		t.Fatalf("jobs_deadline_aborted = %d, want 1", v)
	}
}

func TestCallerCancelStopsRetriesPromptly(t *testing.T) {
	e := testEngine(t, 4, Config{
		TaskFailProb:    1, // every task fails: the job can only retry
		MaxTaskRetries:  1000,
		RetryBackoff:    50 * time.Millisecond,
		MaxRetryBackoff: 500 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(40*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := e.RunCtx(ctx, sliceSource(e, ints(50), 4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// partitionTicker is a minimal ChaosTicker that partitions the fabric on
// its second tick and heals it on the sixth — long enough that at least
// one reduce wave sees blocked fetches, short enough that stage retries
// outlast it.
type partitionTicker struct {
	fab *netsim.Fabric
	n   int
}

func (p *partitionTicker) Tick() {
	p.n++
	switch p.n {
	case 2:
		p.fab.SetPartition([]topology.NodeID{0, 1}, []topology.NodeID{2, 3})
	case 6:
		p.fab.Heal()
	}
}

func TestPartitionBlocksFetchesUntilHeal(t *testing.T) {
	top := topology.Single(4)
	fab := netsim.NewFabric(top, netsim.RDMA40G)
	cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
	e := NewEngine(Config{Cluster: cl, Chaos: &partitionTicker{fab: fab}})
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the fox jumps over the dog",
	}
	got := wordCounts(t, e, wordCountPlan(e, lines, 4, 4))
	if got["the"] != 4 || got["fox"] != 2 {
		t.Fatalf("wrong counts after partition recovery: %v", got)
	}
	if v := e.Reg.Counter("partition_blocked_fetches").Value(); v < 1 {
		t.Fatalf("partition_blocked_fetches = %d, want >= 1", v)
	}
	// Blocked fetches must not invalidate intact map outputs.
	if v := e.Reg.Counter("fetch_failures").Value(); v != 0 {
		t.Fatalf("fetch_failures = %d, want 0 (outputs were never lost)", v)
	}
}
