// Package scenario defines the overload and gray-failure scenarios once.
// The experiments, the perf families, the acceptance tests and the CLIs
// report over these definitions rather than restating them, so the
// overload sizing rule and the gray schedules and bounds each live in one
// place.
package scenario

import (
	"context"
	"time"

	"repro/internal/admission"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// OverloadNodes is the cluster size of the store OverloadStore builds.
const OverloadNodes = 8

// OverloadStore builds the overload serving stack: an 8-node R2W2
// quorum store on the TCP fabric. The fabric is reachable through
// Config().Fabric for chaos targeting.
func OverloadStore() *kvstore.Store {
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.TCP40G)
	store, err := kvstore.New(kvstore.Config{Fabric: fab, N: 3, R: 2, W: 2})
	if err != nil {
		panic(err) // fixed, valid config
	}
	return store
}

// OverloadCalibrate measures the closed-loop mean service latency of a
// fresh OverloadStore and returns it with the implied capacity (ops/sec):
// the saturation point offered-load multiples are expressed against.
func OverloadCalibrate() (time.Duration, float64) {
	store := OverloadStore()
	serve := serveBlocking(store)
	trace := workload.KVOps(2_000, 4_096, 0, 0.9, 128, 77)
	var total time.Duration
	for i, op := range trace {
		lat, err := serve(context.Background(), op, topology.NodeID(i%OverloadNodes))
		if err != nil {
			panic(err) // healthy store, fixed trace
		}
		total += lat
	}
	return Capacity(total / time.Duration(len(trace)))
}

// Capacity returns a measured mean service latency, floored at 1µs, with
// the saturation capacity (ops/sec) it implies.
func Capacity(mean time.Duration) (time.Duration, float64) {
	if mean <= 0 {
		mean = time.Microsecond
	}
	return mean, float64(time.Second) / float64(mean)
}

// OverloadConfig assembles one overload run against store: three
// equal-weight YCSB tenants (A = batch, B = standard, C = interactive)
// offering mult x capacity between them. Every control knob derives from
// the measured mean service latency, so the run self-scales to whatever
// the fabric costs: deadline 50x mean, backoff 5x mean. The defended run
// adds per-tenant quotas at 95% of capacity with ~20ms of bucket depth,
// CoDel at 4x/40x mean, a retry budget and deadline-aware serving; the
// control is an unbounded FIFO serving through the blocking API.
func OverloadConfig(store *kvstore.Store, nodes int, mult, capacity float64, mean, dur time.Duration, seed uint64, defended bool) admission.SimConfig {
	cfg := admission.SimConfig{
		Tenants:     overloadTenants(mult * capacity),
		Duration:    dur,
		Seed:        seed,
		Nodes:       nodes,
		Deadline:    50 * mean,
		MaxAttempts: 3,
		Backoff:     5 * mean,
		WindowWidth: dur / 8,
		Serve:       serveBlocking(store),
	}
	if defended {
		cfg.Serve = serveDeadline(store)
		cfg.Admission = &admission.Config{
			Tenants:  overloadQuotas(cfg.Tenants, capacity),
			Target:   4 * mean,
			Interval: 40 * mean,
			MaxQueue: 256,
		}
		cfg.RetryRatio = 0.1
	}
	return cfg
}

func overloadTenants(totalRate float64) []workload.TenantSpec {
	out := make([]workload.TenantSpec, 3)
	for i, m := range []string{"A", "B", "C"} {
		rf, _ := workload.YCSBMix(m)
		out[i] = workload.TenantSpec{
			ID:         "ycsb-" + m,
			RatePerSec: totalRate / 3,
			Weight:     1,
			Priority:   i,
			ReadFrac:   rf,
			Keys:       512,
			Skew:       0.99,
			ValueSize:  128,
		}
	}
	return out
}

func overloadQuotas(tenants []workload.TenantSpec, capacity float64) []admission.TenantQuota {
	ids := make([]string, len(tenants))
	weights := make([]float64, len(tenants))
	prios := make([]int, len(tenants))
	for i, t := range tenants {
		ids[i], weights[i], prios[i] = t.ID, t.Weight, t.Priority
	}
	qs := admission.QuotasFor(ids, weights, prios, 0.95*capacity)
	for i := range qs {
		qs[i].Burst = qs[i].Rate * 0.02
	}
	return qs
}

// serveDeadline is the deadline-aware serving path: GetCtx/PutCtx fail
// fast when the remaining virtual budget cannot cover the quorum op, so
// a doomed request burns at most its budget instead of full service time.
func serveDeadline(store *kvstore.Store) admission.ServeFunc {
	return func(ctx context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
		if op.Kind == workload.OpPut {
			return store.PutCtx(ctx, coord, op.Key, op.Value)
		}
		_, lat, err := store.GetCtx(ctx, coord, op.Key)
		if err == kvstore.ErrNotFound {
			err = nil // a read miss is a fast, legitimate answer
		}
		return lat, err
	}
}

// serveBlocking is the pre-admission serving path: the blocking Get/Put
// API that charges full service latency no matter how stale the request.
func serveBlocking(store *kvstore.Store) admission.ServeFunc {
	return func(_ context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error) {
		if op.Kind == workload.OpPut {
			return store.Put(coord, op.Key, op.Value)
		}
		_, lat, err := store.Get(coord, op.Key)
		if err == kvstore.ErrNotFound {
			err = nil
		}
		return lat, err
	}
}
