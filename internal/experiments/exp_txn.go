package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/scenario"
)

// ETXNTransactions runs scenario.TxnScenarios — coordinator crashes at
// every 2PC point, a partition spanning the commit point, splits racing
// transactions, dirty reads and the "txn" chaos preset — and scores each
// drained run: strictly serializable (the dirty-read row must be
// caught), no lock and no transaction record left.
func ETXNTransactions(s Scale) *Table {
	waves := pick(s, 8, 20)
	clients := pick(s, 4, 6)
	t := &Table{
		ID:    "E-TXN",
		Title: "Sharded KV transactions under chaos: strict serializability + recovery",
		Note: fmt.Sprintf("%d clients x %d waves over 2 raft groups, multi-range 2PC; "+
			"every scenario ends with orphan recovery; locks/pending must drain to 0; "+
			"the dirty-read row is a deliberate fault the checker must catch", clients, waves),
		Cols: []string{"scenario", "ops", "committed", "aborted", "recovered", "locks", "pending", "strict-serial"},
	}
	for _, sc := range scenario.TxnScenarios() {
		r, err := sc.Run(clients, waves)
		if err != nil {
			panic(fmt.Sprintf("E-TXN %s: %v", sc.Name, err))
		}
		diff := check.Diff{Name: "E-TXN/" + sc.Name, OK: true, Compared: r.Verdict.Ops}
		if err := r.Violation(sc.WantSerial); err != nil {
			diff.OK, diff.Details = false, []string{err.Error()}
		}
		recordCheck(diff)
		t.AddRow(sc.Name,
			fmt.Sprintf("%d", r.Verdict.Ops),
			fmt.Sprintf("%d", r.Committed),
			fmt.Sprintf("%d", r.Aborted),
			fmt.Sprintf("%d", r.Recovered),
			fmt.Sprintf("%d", r.Locks),
			fmt.Sprintf("%d", r.Pending),
			verdictCell(diff))
	}
	return t
}
