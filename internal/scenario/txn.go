package scenario

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/kvstore"
)

// TxnPlane returns the cross-range 2PC plane: two raft groups, the
// capture keyspace (k00..k07) split at k04, and 16 attempts per
// single-key op, 8 per transaction.
func TxnPlane(seed uint64) *kvstore.Sharded {
	return kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: seed, Groups: 2, InitialSplits: []string{"k04"},
		MaxOpAttempts: 16, MaxTxnAttempts: 8,
	})
}

// RotateCrash runs after capture wave wave. At wave%period == phase it
// arms a one-shot coordinator crash at the next of
// kvstore.TxnCrashPoints; two waves later it runs a recovery pass, so
// orphaned locks meet live traffic first. A failed mid-run pass leaves
// its work to the final drain.
func RotateCrash(s *kvstore.Sharded, wave, period, phase int) {
	switch wave % period {
	case phase:
		_ = s.OrphanNext(kvstore.TxnCrashPoints[(wave/period)%len(kvstore.TxnCrashPoints)])
	case phase + 2:
		_ = s.Recover()
	}
}

// IsolateLeader cuts group 0, which holds the transaction records, into
// its leader against its followers.
func IsolateLeader(s *kvstore.Sharded) {
	leader := s.GroupLeader(0)
	var rest []int
	for id := 0; id < s.GroupMembers(0); id++ {
		if id != leader {
			rest = append(rest, id)
		}
	}
	s.PartitionGroup(0, []int{leader}, rest)
}

// HealLeader undoes IsolateLeader and runs a recovery pass.
func HealLeader(s *kvstore.Sharded) {
	s.HealGroup(0)
	_ = s.Recover()
}

// DirtyReads serves reads from overwritten versions from wave 2 on: the
// isolation fault the strict-serializability check must catch.
func DirtyReads(s *kvstore.Sharded, wave int) { s.SetDirtyReads(wave >= 2) }

// TxnDrain is what a transactional run ended with.
type TxnDrain struct {
	// Committed, Aborted and Recovered count transactions over the
	// plane's life; Recovered are those recovery aborted or resumed.
	Committed, Aborted, Recovered int64
	// Locks and Pending are the participant locks and transaction
	// records the final recovery pass left.
	Locks, Pending int
	// Verdict is check.CheckTxns over the captured history.
	Verdict check.Outcome
}

// DrainTxns ends every transactional run: one recovery pass over s,
// then the locks and transaction records left, then the verdict on ops.
func DrainTxns(s *kvstore.Sharded, ops []check.TxnOp) (TxnDrain, error) {
	if err := s.Recover(); err != nil {
		return TxnDrain{}, fmt.Errorf("recover: %w", err)
	}
	locks, err := s.LockCount()
	if err != nil {
		return TxnDrain{}, fmt.Errorf("lock count: %w", err)
	}
	pending, err := s.PendingTxnRecords()
	if err != nil {
		return TxnDrain{}, fmt.Errorf("pending txn records: %w", err)
	}
	c := func(name string) int64 { return s.Reg.Counter(name).Value() }
	return TxnDrain{
		Committed: c("txn_committed"),
		Aborted:   c("txn_aborted"),
		Recovered: c("txn_recovered_aborted") + c("txn_recovered_resumed"),
		Locks:     locks,
		Pending:   pending,
		Verdict:   check.CheckTxns(ops),
	}, nil
}

// Violation reports a lock or transaction record left behind, or a
// verdict other than wantSerial.
func (d TxnDrain) Violation(wantSerial bool) error {
	if d.Locks == 0 && d.Pending == 0 && d.Verdict.OK == wantSerial {
		return nil
	}
	return fmt.Errorf("serializable=%v want %v, %d locks, %d pending txn records: %s",
		d.Verdict.OK, wantSerial, d.Locks, d.Pending, d.Verdict.Detail)
}

// TxnScenario is one E-TXN row: faults run after every capture wave
// against a fresh TxnPlane, then DrainTxns.
type TxnScenario struct {
	Name string
	// PlaneSeed seeds the plane and its chaos controller; CaptureSeed
	// the clients' operation mix.
	PlaneSeed, CaptureSeed uint64
	// Faults, if set, runs after every capture wave.
	Faults func(s *kvstore.Sharded, wave int)
	// Chaos ticks the "txn" chaos preset once per wave; it must run out.
	Chaos bool
	// WantSerial is false only for the deliberate dirty-read injection,
	// which proves the checker has teeth.
	WantSerial bool
}

// TxnScenarios returns E-TXN's rows in table order.
func TxnScenarios() []TxnScenario {
	return []TxnScenario{
		{Name: "baseline", PlaneSeed: 42, CaptureSeed: 1008, WantSerial: true},
		{Name: "coord-crash", PlaneSeed: 42, CaptureSeed: 1011, WantSerial: true,
			Faults: func(s *kvstore.Sharded, wave int) { RotateCrash(s, wave, 3, 0) }},
		// The control group is cut across the commit point twice.
		{Name: "partition-commit", PlaneSeed: 42, CaptureSeed: 1016, WantSerial: true,
			Faults: func(s *kvstore.Sharded, wave int) {
				switch wave {
				case 2, 8:
					IsolateLeader(s)
				case 4, 10:
					HealLeader(s)
				}
			}},
		// Splits and a merge race live transactions; the split crashed
		// mid-copy at wave 5 is left for recovery.
		{Name: "split-race", PlaneSeed: 42, CaptureSeed: 1010, WantSerial: true,
			Faults: func(s *kvstore.Sharded, wave int) {
				switch wave {
				case 1:
					_ = s.Split("k02")
				case 3:
					_ = s.Split("k05")
				case 5:
					_ = s.OrphanNext("split-copy")
					_ = s.Split("k03")
				case 7:
					_ = s.Recover()
				case 9:
					_ = s.Merge("k02")
				}
			}},
		{Name: "dirty-read", PlaneSeed: 42, CaptureSeed: 1010, Faults: DirtyReads},
		{Name: "chaos-preset", PlaneSeed: 43, CaptureSeed: 2000, Chaos: true, WantSerial: true},
	}
}

// Run captures clients x waves operations against a fresh plane with the
// scenario's faults between waves, then drains it.
func (sc TxnScenario) Run(clients, waves int) (TxnDrain, error) {
	s := TxnPlane(sc.PlaneSeed)
	var ctl *chaos.Controller // nil: Tick does nothing, Done is true
	if sc.Chaos {
		sched, err := chaos.Preset("txn", s.Groups())
		if err != nil {
			return TxnDrain{}, err
		}
		ctl = chaos.New(sched, sc.PlaneSeed, chaos.Targets{Nodes: s.Groups(), Txn: s}, s.Reg)
	}
	ops := check.CaptureTxnHistory(s, check.TxnCaptureConfig{
		Clients: clients, Waves: waves, Seed: sc.CaptureSeed,
		BetweenWaves: func(wave int) {
			if sc.Faults != nil {
				sc.Faults(s, wave)
			}
			ctl.Tick()
		},
	})
	if !ctl.Done() {
		return TxnDrain{}, fmt.Errorf("txn chaos preset outlasts %d waves", waves)
	}
	s.SetDirtyReads(false)
	return DrainTxns(s, ops)
}
