package netstack

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// mapTable is the reference NeighborTable: a plain map with every query
// answered by sorting, i.e. the obvious implementation the slice-backed
// table must agree with.
type mapTable map[radio.NodeID]Neighbor

func (m mapTable) all() []Neighbor {
	out := make([]Neighbor, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b Neighbor) int { return int(a.ID - b.ID) })
	return out
}

func (m mapTable) purge(deadline sim.Time) []radio.NodeID {
	var removed []radio.NodeID
	for id, n := range m {
		if n.LastHeard < deadline {
			removed = append(removed, id)
		}
	}
	slices.Sort(removed)
	for _, id := range removed {
		delete(m, id)
	}
	return removed
}

// TestNeighborTableDifferential drives the slice-backed table and the map
// reference through the same randomized operation stream — Upsert,
// Remove, Touch, Get, Purge, All — and requires identical answers and
// identical contents after every step. IDs are drawn from a small range
// so inserts, in-place updates and removals of present and absent IDs
// all happen often.
func TestNeighborTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		tb, ref := NewNeighborTable(), mapTable{}
		idRange := 4 + r.Intn(60)
		var now sim.Time
		for step := 0; step < 600; step++ {
			id := radio.NodeID(r.Intn(idRange))
			now += sim.Duration(r.Intn(4))
			switch op := r.Intn(10); op {
			case 0, 1, 2, 3:
				loc := geom.Pt(r.Float64()*100, r.Float64()*100)
				tb.Upsert(id, loc, now)
				ref[id] = Neighbor{ID: id, Loc: loc, LastHeard: now}
			case 4:
				tb.Remove(id)
				delete(ref, id)
			case 5:
				got := tb.Touch(id, now)
				n, want := ref[id]
				if want {
					n.LastHeard = now
					ref[id] = n
				}
				if got != want {
					t.Fatalf("seed %d step %d: Touch(%d) = %v, reference %v", seed, step, id, got, want)
				}
			case 6, 7:
				got, gok := tb.Get(id)
				want, wok := ref[id]
				if got != want || gok != wok {
					t.Fatalf("seed %d step %d: Get(%d) = %v,%v, reference %v,%v", seed, step, id, got, gok, want, wok)
				}
			case 8:
				deadline := now - sim.Duration(r.Intn(40))
				got := slices.Clone(tb.Purge(deadline))
				want := ref.purge(deadline)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d: Purge(%v) = %v, reference %v", seed, step, deadline, got, want)
				}
			case 9:
				if got, want := tb.All(), ref.all(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: All = %v, reference %v", seed, step, got, want)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, tb.Len(), len(ref))
			}
		}
		if got, want := tb.All(), ref.all(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: final contents %v, reference %v", seed, got, want)
		}
	}
}

// TestNeighborTablePurgeBufferSurvivesUpserts pins the Purge contract the
// sensor's tick relies on: the returned IDs stay intact while the caller
// re-inserts some of them.
func TestNeighborTablePurgeBufferSurvivesUpserts(t *testing.T) {
	tb := NewNeighborTable()
	for id := radio.NodeID(1); id <= 6; id++ {
		tb.Upsert(id, geom.Pt(float64(id), 0), sim.Time(id))
	}
	removed := tb.Purge(4)
	want := []radio.NodeID{1, 2, 3}
	for _, id := range removed {
		tb.Upsert(id, geom.Pt(0, 0), 10)
	}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("Purge result changed under Upsert: %v, want %v", removed, want)
	}
	if tb.Len() != 6 {
		t.Fatalf("Len = %d after re-inserting the purged IDs, want 6", tb.Len())
	}
}

// TestAllReturnsACopy: callers may keep the All slice while the table
// changes.
func TestAllReturnsACopy(t *testing.T) {
	tb := NewNeighborTable()
	tb.Upsert(1, geom.Pt(1, 1), 1)
	all := tb.All()
	tb.Upsert(1, geom.Pt(2, 2), 2)
	if all[0].LastHeard != 1 {
		t.Fatal("All aliases the table's storage")
	}
	if empty := NewNeighborTable().All(); empty == nil || len(empty) != 0 {
		t.Fatalf("All of an empty table = %#v, want an empty non-nil slice", empty)
	}
}

// warmTable returns a table holding n neighbors, IDs 10, 20, …, last heard
// at t=100.
func warmTable(n int) *NeighborTable {
	tb := NewNeighborTable()
	for i := 1; i <= n; i++ {
		tb.Upsert(radio.NodeID(10*i), geom.Pt(float64(i), 0), 100)
	}
	return tb
}

// TestNeighborTableSteadyStateAllocs: on a warmed table, refreshing an
// entry, touching it, and a purge that removes entries which are then
// heard again (the sensor's tick) allocate nothing.
func TestNeighborTableSteadyStateAllocs(t *testing.T) {
	tb := warmTable(16)
	now := sim.Time(100)
	if a := testing.AllocsPerRun(1000, func() {
		now++
		tb.Upsert(80, geom.Pt(3, 4), now)
	}); a != 0 {
		t.Errorf("Upsert of a present ID: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		now++
		tb.Touch(120, now)
	}); a != 0 {
		t.Errorf("Touch: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		now++
		for _, id := range tb.Purge(now) {
			tb.Upsert(id, geom.Pt(0, 0), now)
		}
	}); a != 0 {
		t.Errorf("Purge and re-insert: %v allocs/op, want 0", a)
	}
	if tb.Len() != 16 {
		t.Fatalf("Len = %d, want 16", tb.Len())
	}
}

// TestFlooderSteadyStateAllocs: duplicate suppression for known origins
// allocates nothing.
func TestFlooderSteadyStateAllocs(t *testing.T) {
	f := NewFlooder()
	for o := radio.NodeID(1); o <= 17; o++ {
		f.Fresh(FloodMsg{Origin: o, Seq: 1})
	}
	seq := uint64(1)
	if a := testing.AllocsPerRun(1000, func() {
		seq++
		f.Fresh(FloodMsg{Origin: 9, Seq: seq})
		f.Fresh(FloodMsg{Origin: 9, Seq: seq})
	}); a != 0 {
		t.Errorf("Fresh: %v allocs/op, want 0", a)
	}
}

// TestFlooderRejectsNegativeOrigin: no station sends from a negative
// address, so such an instance is never fresh (and never indexes the
// origin table).
func TestFlooderRejectsNegativeOrigin(t *testing.T) {
	f := NewFlooder()
	if f.Fresh(FloodMsg{Origin: -3, Seq: 1}) {
		t.Fatal("negative origin reported fresh")
	}
	if _, ok := f.LastSeq(-3); ok {
		t.Fatal("negative origin has a last sequence")
	}
}

// BenchmarkNeighborTableUpsert measures refreshing a present entry in a
// paper-sized table (a beacon heard from a known neighbor): the hot
// operation of beacon delivery. Steady state allocates nothing.
func BenchmarkNeighborTableUpsert(b *testing.B) {
	tb := warmTable(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Upsert(radio.NodeID(10*(1+i%16)), geom.Pt(1, 2), sim.Time(200+i))
	}
}

// BenchmarkNeighborTablePurge measures the sensor tick's purge of a
// paper-sized table where one entry has gone stale and is heard again.
func BenchmarkNeighborTablePurge(b *testing.B) {
	tb := warmTable(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Touch(radio.NodeID(10*(1+i%16)), 0)
		for _, id := range tb.Purge(1) {
			tb.Upsert(id, geom.Pt(0, 0), 100)
		}
	}
}
