package scenario

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/kvstore"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestOverloadServeAdapters pins the two serving paths of the overload
// runs under a budget smaller than the op's service latency: the defended
// adapter gives up at the deadline and charges only the budget, while the
// control adapter charges the full service latency and reports no error.
func TestOverloadServeAdapters(t *testing.T) {
	const coord = topology.NodeID(0)
	for name, op := range map[string]workload.Op{
		"put": {Kind: workload.OpPut, Key: "k", Value: []byte("v2")},
		"get": {Kind: workload.OpGet, Key: "k"},
	} {
		// freshStore returns a new store holding k; stores built the same
		// way serve the same op at the same simulated latency.
		freshStore := func() *kvstore.Store {
			s := OverloadStore()
			if _, err := s.Put(coord, "k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			return s
		}
		var full time.Duration
		var err error
		if ref := freshStore(); op.Kind == workload.OpPut {
			full, err = ref.Put(coord, op.Key, op.Value)
		} else {
			_, full, err = ref.Get(coord, op.Key)
		}
		if err != nil || full <= 1 {
			t.Fatalf("%s: reference latency %v, err %v", name, full, err)
		}
		budget := full / 2
		ctx := admission.WithBudget(context.Background(), budget)

		defended := OverloadConfig(freshStore(), OverloadNodes, 1, 1e4, time.Microsecond, time.Second, 1, true).Serve
		if lat, err := defended(ctx, op, coord); !errors.Is(err, kvstore.ErrDeadlineExceeded) || lat != budget {
			t.Errorf("%s defended: got (%v, %v), want (%v, ErrDeadlineExceeded)", name, lat, err, budget)
		}
		control := OverloadConfig(freshStore(), OverloadNodes, 1, 1e4, time.Microsecond, time.Second, 1, false).Serve
		if lat, err := control(ctx, op, coord); err != nil || lat != full {
			t.Errorf("%s control: got (%v, %v), want (%v, nil)", name, lat, err, full)
		}
	}
}
