package table

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// AggOp is an aggregation operator.
type AggOp int

// Aggregation operators.
const (
	Sum AggOp = iota
	Count
	Min
	Max
	Avg
)

func (o AggOp) String() string {
	switch o {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "avg"
	}
}

// Agg describes one aggregate: Op over Col, named As in the output
// (default "<op>_<col>"). Count ignores Col.
type Agg struct {
	Op  AggOp
	Col string
	As  string
}

func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	if a.Op == Count {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.Op, a.Col)
}

// Grouped is a group-by builder; call Agg to produce the result table.
type Grouped struct {
	t    *Table
	keys []string
}

// GroupBy starts a grouped aggregation on the named key columns.
func (t *Table) GroupBy(keys ...string) *Grouped {
	return &Grouped{t: t, keys: keys}
}

// aggSlot is one Agg spec's partial aggregate. Which fields are live
// depends on the spec's op and column type.
type aggSlot struct {
	i   int64   // Sum over Int64; Min/Max over Int64
	f   float64 // Sum over Float64; Avg sum; Min/Max over Float64
	n   int64   // Count; Avg count
	set bool    // Min/Max has seen a value
	s   string  // Min/Max over String
}

// aggState is one group's partial aggregate: one slot per Agg spec.
type aggState []aggSlot

// aggPlan is the resolved execution info per spec.
type aggPlan struct {
	spec   Agg
	colIdx int  // -1 for Count
	typ    Type // column type (Int64 for Count)
}

// Agg executes the grouped aggregation with map-side partial aggregation:
// each map partition folds its rows into typed per-group state and ships
// one encoded state per group; the reduce side merges those states.
func (g *Grouped) Agg(parts int, aggs ...Agg) (*Table, error) {
	t := g.t
	if len(aggs) == 0 {
		return nil, fmt.Errorf("table: GroupBy.Agg needs at least one aggregate")
	}
	if parts <= 0 {
		parts = t.Partitions()
	}
	keyIdx := make([]int, len(g.keys))
	outCols := make([]Col, 0, len(g.keys)+len(aggs))
	for i, k := range g.keys {
		j, err := t.schema.MustIndex(k)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = j
		outCols = append(outCols, t.schema.Cols[j])
	}
	plans := make([]aggPlan, len(aggs))
	for i, a := range aggs {
		p := aggPlan{spec: a, colIdx: -1, typ: Int64}
		if a.Op != Count {
			j, err := t.schema.MustIndex(a.Col)
			if err != nil {
				return nil, err
			}
			p.colIdx = j
			p.typ = t.schema.Cols[j].Type
			if a.Op != Min && a.Op != Max && p.typ == String {
				return nil, fmt.Errorf("table: %s over string column %q", a.Op, a.Col)
			}
		}
		outType := Int64
		switch a.Op {
		case Sum, Min, Max:
			outType = p.typ
		case Avg:
			outType = Float64
		}
		outCols = append(outCols, Col{Name: a.name(), Type: outType})
		plans[i] = p
	}
	outSchema := Schema{Cols: outCols}
	schema := t.schema

	// Map side: fold the partition's rows in order, then emit one
	// (key, state) record per group in ascending key order.
	partial := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		groups := map[string]aggState{}
		var key []byte
		for _, r := range rows {
			row := r.(Row)
			key = appendCompositeKey(key[:0], schema, keyIdx, row)
			st, ok := groups[string(key)]
			if !ok {
				st = make(aggState, len(plans))
				groups[string(key)] = st
			}
			accumulate(plans, st, row, !ok)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]core.Row, len(keys))
		for i, k := range keys {
			out[i] = shuffle.Record{Key: []byte(k), Value: encodeState(plans, groups[k])}
		}
		return out
	})

	plan := t.eng.NewShuffled(partial, core.ShuffleDep{
		Partitions: parts,
		KeyOf:      func(r core.Row) []byte { return r.(shuffle.Record).Key },
		ValueOf:    func(r core.Row) []byte { return r.(shuffle.Record).Value },
		Post: func(_ *core.TaskContext, recs []shuffle.Record) []core.Row {
			merged := map[string]aggState{}
			var order []string
			for _, rec := range recs {
				st, err := decodeState(plans, rec.Value)
				if err != nil {
					panic(fmt.Sprintf("table: agg state decode: %v", err))
				}
				if cur, ok := merged[string(rec.Key)]; ok {
					mergeState(plans, cur, st)
				} else {
					k := string(rec.Key)
					merged[k] = st
					order = append(order, k)
				}
			}
			out := make([]core.Row, 0, len(merged))
			for _, k := range order {
				keyVals, err := decodeCompositeKey(schema, keyIdx, []byte(k))
				if err != nil {
					panic(fmt.Sprintf("table: group key decode: %v", err))
				}
				row := make(Row, 0, len(keyVals)+len(plans))
				row = append(row, keyVals...)
				row = append(row, finalize(plans, merged[k])...)
				out = append(out, row)
			}
			return out
		},
	})
	return &Table{eng: t.eng, plan: plan, schema: outSchema}, nil
}

// rowSlot is spec p's slot for the single-row group {r}.
func rowSlot(p aggPlan, r Row) aggSlot {
	switch p.spec.Op {
	case Count:
		return aggSlot{n: 1}
	case Sum:
		if p.typ == Int64 {
			return aggSlot{i: r[p.colIdx].(int64)}
		}
		return aggSlot{f: r[p.colIdx].(float64)}
	case Avg:
		if p.typ == Int64 {
			return aggSlot{f: float64(r[p.colIdx].(int64)), n: 1}
		}
		return aggSlot{f: r[p.colIdx].(float64), n: 1}
	default: // Min, Max
		switch p.typ {
		case Int64:
			return aggSlot{set: true, i: r[p.colIdx].(int64)}
		case Float64:
			return aggSlot{set: true, f: r[p.colIdx].(float64)}
		default:
			return aggSlot{set: true, s: r[p.colIdx].(string)}
		}
	}
}

// accumulate folds row r into st in place; first marks the group's first
// row, whose slots are taken as they are (so a float sum starts at the
// first value, not at 0 + value, which would turn -0 into +0).
func accumulate(plans []aggPlan, st aggState, r Row, first bool) {
	for i, p := range plans {
		if first {
			st[i] = rowSlot(p, r)
		} else {
			mergeSlot(p, &st[i], rowSlot(p, r))
		}
	}
}

// mergeState folds b into a.
func mergeState(plans []aggPlan, a, b aggState) {
	for i, p := range plans {
		mergeSlot(p, &a[i], b[i])
	}
}

// mergeSlot folds slot b into a for spec p.
func mergeSlot(p aggPlan, a *aggSlot, b aggSlot) {
	switch p.spec.Op {
	case Count, Sum, Avg:
		// Fields the spec does not use stay zero, so adding all is safe.
		a.i += b.i
		a.f += b.f
		a.n += b.n
	case Min, Max:
		if !b.set {
			return
		}
		if !a.set {
			*a = b
			return
		}
		var less, more bool
		switch p.typ {
		case Int64:
			less, more = b.i < a.i, b.i > a.i
		case Float64:
			less, more = b.f < a.f, b.f > a.f
		default:
			less, more = b.s < a.s, b.s > a.s
		}
		if (p.spec.Op == Min && less) || (p.spec.Op == Max && more) {
			*a = b
		}
	}
}

// finalize renders output values.
func finalize(plans []aggPlan, st aggState) []any {
	out := make([]any, len(plans))
	for i, p := range plans {
		sl := st[i]
		switch p.spec.Op {
		case Count:
			out[i] = sl.n
		case Sum:
			if p.typ == Int64 {
				out[i] = sl.i
			} else {
				out[i] = sl.f
			}
		case Avg:
			if sl.n == 0 {
				out[i] = math.NaN()
			} else {
				out[i] = sl.f / float64(sl.n)
			}
		case Min, Max:
			switch p.typ {
			case Int64:
				out[i] = sl.i
			case Float64:
				out[i] = sl.f
			default:
				out[i] = sl.s
			}
		}
	}
	return out
}

// encodeState serializes per-spec slots.
func encodeState(plans []aggPlan, st aggState) []byte {
	var out []byte
	for i, p := range plans {
		sl := st[i]
		switch p.spec.Op {
		case Count:
			out = serde.AppendInt64(out, sl.n)
		case Sum:
			if p.typ == Int64 {
				out = serde.AppendInt64(out, sl.i)
			} else {
				out = serde.AppendUint64(out, floatBits(sl.f))
			}
		case Avg:
			out = serde.AppendUint64(out, floatBits(sl.f))
			out = serde.AppendInt64(out, sl.n)
		case Min, Max:
			if !sl.set {
				out = append(out, 0)
				continue
			}
			out = append(out, 1)
			switch p.typ {
			case Int64:
				out = serde.AppendInt64(out, sl.i)
			case Float64:
				out = serde.AppendUint64(out, floatBits(sl.f))
			default:
				out = serde.AppendInt64(out, int64(len(sl.s)))
				out = append(out, sl.s...)
			}
		}
	}
	return out
}

// decodeState inverts encodeState.
func decodeState(plans []aggPlan, b []byte) (aggState, error) {
	st := make(aggState, len(plans))
	readI := func() (int64, error) {
		v, n, err := serde.Int64(b)
		if err != nil {
			return 0, err
		}
		b = b[n:]
		return v, nil
	}
	readF := func() (float64, error) {
		u, err := serde.Uint64(b)
		if err != nil {
			return 0, err
		}
		b = b[8:]
		return math.Float64frombits(u), nil
	}
	for i, p := range plans {
		sl := &st[i]
		var err error
		switch p.spec.Op {
		case Count:
			sl.n, err = readI()
		case Sum:
			if p.typ == Int64 {
				sl.i, err = readI()
			} else {
				sl.f, err = readF()
			}
		case Avg:
			if sl.f, err = readF(); err == nil {
				sl.n, err = readI()
			}
		case Min, Max:
			if len(b) == 0 {
				return nil, serde.ErrCorrupt
			}
			present := b[0]
			b = b[1:]
			if present == 0 {
				continue
			}
			sl.set = true
			switch p.typ {
			case Int64:
				sl.i, err = readI()
			case Float64:
				sl.f, err = readF()
			default:
				var l int64
				if l, err = readI(); err == nil {
					if int64(len(b)) < l {
						return nil, serde.ErrCorrupt
					}
					sl.s = string(b[:l])
					b = b[l:]
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// decodeCompositeKey inverts compositeKey for the group-key columns.
func decodeCompositeKey(s Schema, idx []int, key []byte) ([]any, error) {
	out := make([]any, len(idx))
	for k, i := range idx {
		switch s.Cols[i].Type {
		case Int64:
			v, err := serde.FromSortableInt64Key(key)
			if err != nil {
				return nil, err
			}
			out[k] = v
			key = key[8:]
		case Float64:
			v, err := serde.FromSortableFloat64Key(key)
			if err != nil {
				return nil, err
			}
			out[k] = v
			key = key[8:]
		default:
			v, n, err := serde.FromSortableStringKey(key)
			if err != nil {
				return nil, err
			}
			out[k] = v
			key = key[n:]
		}
	}
	return out, nil
}
