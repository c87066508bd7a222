package table

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

// refGroup is a group's reference aggregate, built one row at a time.
type refGroup struct {
	sumI, n          int64
	sumF, avgI, avgF float64
	minI, maxI       int64
	minF, maxF       float64
	minS, maxS       string
}

func (g *refGroup) addRow(r Row) {
	i, f, s := r[1].(int64), r[2].(float64), r[3].(string)
	g.merge(&refGroup{sumI: i, n: 1, sumF: f, avgI: float64(i), avgF: f,
		minI: i, maxI: i, minF: f, maxF: f, minS: s, maxS: s})
}

// merge folds b into g; an empty g (n == 0) takes b as it is, so a float
// sum starts at its first value. Min/Max keep the earlier value on ties
// and on unordered (NaN) comparisons.
func (g *refGroup) merge(b *refGroup) {
	if g.n == 0 {
		*g = *b
		return
	}
	g.sumI += b.sumI
	g.n += b.n
	g.sumF += b.sumF
	g.avgI += b.avgI
	g.avgF += b.avgF
	if b.minI < g.minI {
		g.minI = b.minI
	}
	if b.maxI > g.maxI {
		g.maxI = b.maxI
	}
	if b.minF < g.minF {
		g.minF = b.minF
	}
	if b.maxF > g.maxF {
		g.maxF = b.maxF
	}
	if b.minS < g.minS {
		g.minS = b.minS
	}
	if b.maxS > g.maxS {
		g.maxS = b.maxS
	}
}

func (g *refGroup) values() []any {
	n := float64(g.n)
	return []any{g.sumI, g.sumF, g.avgI / n, g.avgF / n,
		g.minI, g.maxI, g.minF, g.maxF, g.minS, g.maxS, g.n}
}

// everyAgg lists one aggregate per (op, column type) pair, in the order
// refGroup.values reports them.
var everyAgg = []Agg{
	{Op: Sum, Col: "i"}, {Op: Sum, Col: "f"},
	{Op: Avg, Col: "i"}, {Op: Avg, Col: "f"},
	{Op: Min, Col: "i"}, {Op: Max, Col: "i"},
	{Op: Min, Col: "f"}, {Op: Max, Col: "f"},
	{Op: Min, Col: "s"}, {Op: Max, Col: "s"},
	{Op: Count},
}

// refAgg folds each map partition's rows (FromSlice deals row i to
// partition i mod parts) in order, then merges the partials in map
// partition order — the order the engine reads shuffle blocks in. It
// also returns the number of partial records the map side must ship:
// the sum over partitions of each one's distinct groups.
func refAgg(rows []Row, parts int) (map[string]*refGroup, int64) {
	out := map[string]*refGroup{}
	var records int64
	for p := 0; p < parts; p++ {
		partial := map[string]*refGroup{}
		var order []string
		for i := p; i < len(rows); i += parts {
			k := rows[i][0].(string)
			g, ok := partial[k]
			if !ok {
				g = &refGroup{}
				partial[k] = g
				order = append(order, k)
			}
			g.addRow(rows[i])
		}
		records += int64(len(order))
		for _, k := range order {
			if out[k] == nil {
				out[k] = &refGroup{}
			}
			out[k].merge(partial[k])
		}
	}
	return out, records
}

func aggTestSchema() Schema {
	return Schema{Cols: []Col{
		{Name: "k", Type: String},
		{Name: "i", Type: Int64},
		{Name: "f", Type: Float64},
		{Name: "s", Type: String},
	}}
}

// aggRows makes n rows over keys distinct group keys; floats are drawn
// from magnitudes whose sum depends on the order of addition.
func aggRows(n, keys int, seed uint64) []Row {
	gen := rng.New(seed)
	floats := []float64{1e16, -1e16, 1, 0.1, -3.5, 2.5e-8, math.Copysign(0, -1)}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			fmt.Sprintf("k%03d", gen.Intn(keys)),
			int64(gen.Intn(2000) - 1000),
			floats[gen.Intn(len(floats))] * float64(1+gen.Intn(3)),
			fmt.Sprintf("s%02d", gen.Intn(50)),
		}
	}
	return rows
}

func TestAggMatchesRowFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	distinct := aggRows(200, 1, 3)
	for i := range distinct {
		distinct[i][0] = fmt.Sprintf("k%03d", i)
	}
	cases := []struct {
		name  string
		rows  []Row
		parts int
	}{
		{"no rows", nil, 4},
		{"empty partitions", aggRows(3, 2, 1), 8},
		{"one group", aggRows(300, 1, 2), 4},
		{"all distinct", distinct, 4},
		{"order-sensitive floats", aggRows(400, 3, 4), 5},
		{"negative zero sum", []Row{{"z", int64(1), negZero, "a"}, {"z", int64(2), negZero, "b"}}, 1},
	}
	engines := []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{}},
		{"tiny spill", core.Config{SpillThreshold: 1}},
		{"sort shuffle", core.Config{ForceSortShuffle: true}},
	}
	for _, e := range engines {
		for _, c := range cases {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				cfg := e.cfg
				fab := netsim.NewFabric(topology.TwoTier(2, 2, 2), netsim.RDMA40G)
				cfg.Cluster = cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
				eng := core.NewEngine(cfg)
				tb := mustTable(t, eng, aggTestSchema(), c.rows, c.parts)
				res, err := tb.GroupBy("k").Agg(3, everyAgg...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := res.Collect()
				if err != nil {
					t.Fatal(err)
				}
				want, records := refAgg(c.rows, c.parts)
				if len(got) != len(want) {
					t.Fatalf("groups = %d, want %d", len(got), len(want))
				}
				for _, r := range got {
					w := want[r[0].(string)]
					if w == nil {
						t.Fatalf("unexpected group %v", r[0])
					}
					for j, wv := range w.values() {
						if !sameValue(r[1+j], wv) {
							t.Errorf("group %v %s = %v, want %v", r[0], res.Schema().Cols[1+j].Name, r[1+j], wv)
						}
					}
				}
				if n := eng.Reg.Counter("shuffle_records_written").Value(); n != records {
					t.Errorf("shuffle_records_written = %d, want %d (distinct groups per map partition)", n, records)
				}
			})
		}
	}
}

// sameValue compares floats bit for bit, so -0 differs from +0.
func sameValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}
