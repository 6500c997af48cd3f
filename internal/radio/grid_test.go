package radio

import (
	"math"
	"slices"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
)

// mobileStation is a fakeStation that reports itself mobile, so the medium
// polls its live position on every query.
type mobileStation struct{ fakeStation }

func (s *mobileStation) RadioMobile() bool { return true }

// bruteInRange is the oracle for range queries: every attached, active
// station within radius of p, in ID order.
func bruteInRange(sts []Station, p geom.Point, radius float64, exclude NodeID) []NodeID {
	var ids []NodeID
	for _, s := range sts {
		if s.RadioID() != exclude && s.RadioActive() && p.Dist2(s.RadioPos()) <= radius*radius {
			ids = append(ids, s.RadioID())
		}
	}
	slices.Sort(ids)
	return ids
}

// idsOf lists the IDs of an InRange result.
func idsOf(sts []Station) []NodeID {
	var ids []NodeID
	for _, s := range sts {
		ids = append(ids, s.RadioID())
	}
	return ids
}

// checkQueries compares InRange and AppendInRange against the oracle at
// each query point.
func checkQueries(t *testing.T, m *Medium, sts []Station, radius float64, pts ...geom.Point) {
	t.Helper()
	for _, p := range pts {
		want := bruteInRange(sts, p, radius, -2)
		if got := idsOf(m.InRange(p, radius, -2)); !slices.Equal(got, want) {
			t.Errorf("InRange(%v, %v) = %v, oracle %v", p, radius, got, want)
		}
		var got []NodeID
		for _, e := range m.AppendInRange(nil, p, radius, -2) {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("AppendInRange(%v, %v) = %v, oracle %v", p, radius, got, want)
		}
	}
}

// TestGridNegativeAndOutOfFieldCoordinates: the dense grid grows to cover
// stations on either side of the origin and far outside the deployment
// field, in whatever order they attach, and every query — including ones
// straddling the grid's edges or lying wholly outside it — matches the
// oracle.
func TestGridNegativeAndOutOfFieldCoordinates(t *testing.T) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	pos := []geom.Point{
		geom.Pt(10, 10), geom.Pt(-10, -10), geom.Pt(-63, 0), geom.Pt(0, -63),
		geom.Pt(-500, -300), geom.Pt(-530, -310), geom.Pt(10000, 20), geom.Pt(10040, 20),
		geom.Pt(62.999, 63), geom.Pt(63, 62.999), geom.Pt(-0.001, 0.001), geom.Pt(-4000, 9000),
	}
	var sts []Station
	for i, p := range pos {
		s := &fakeStation{id: NodeID(i + 1), pos: p, rng: 63}
		m.Attach(s)
		sts = append(sts, s)
	}
	var pts []geom.Point
	for _, p := range pos {
		pts = append(pts, p, geom.Pt(p.X+40, p.Y-40))
	}
	pts = append(pts, geom.Pt(-1e5, -1e5), geom.Pt(1e5, 1e5), geom.Pt(0, 0))
	checkQueries(t, m, sts, 63, pts...)
	checkQueries(t, m, sts, 700, pts...)
	if len(m.grid.far) != 0 {
		t.Errorf("%d stations in the far list; all fit the dense grid", len(m.grid.far))
	}
}

// TestGridMobileStationLeavesInitialBounds moves a mobile station in steps
// across many cells and far beyond the bounds the grid was first sized
// for, calling Moved after each step: it must be found exactly where it
// is, and no longer where it was.
func TestGridMobileStationLeavesInitialBounds(t *testing.T) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	var sts []Station
	for i := 0; i < 30; i++ {
		s := &fakeStation{id: NodeID(i + 2), pos: geom.Pt(float64(i%6)*40, float64(i/6)*40), rng: 63}
		m.Attach(s)
		sts = append(sts, s)
	}
	robot := &mobileStation{fakeStation{id: 1, pos: geom.Pt(100, 100), rng: 250}}
	m.Attach(robot)
	sts = append(sts, robot)
	x0, y0, w, h := m.grid.x0, m.grid.y0, m.grid.w, m.grid.h
	for step := 0; step < 60; step++ {
		old := robot.pos
		robot.pos = geom.Pt(100+float64(step)*97, 100-float64(step)*71)
		m.Moved(1, old)
		checkQueries(t, m, sts, 63, robot.pos, old, geom.Pt(robot.pos.X+50, robot.pos.Y))
	}
	if m.grid.x0 == x0 && m.grid.y0 == y0 && m.grid.w == w && m.grid.h == h {
		t.Fatal("grid never grew; the walk did not leave its initial bounds")
	}
	// A mobile station queried between Moved calls is matched at its live
	// position as long as it stays in its indexed cell.
	robot.pos = geom.Pt(robot.pos.X+1, robot.pos.Y+1)
	checkQueries(t, m, sts, 63, robot.pos)
}

// TestGridReattachMovesStation: re-attaching an ID files the new station
// at its own position and forgets the old one's cell.
func TestGridReattachMovesStation(t *testing.T) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	a := &fakeStation{id: 5, pos: geom.Pt(10, 10), rng: 63}
	other := &fakeStation{id: 6, pos: geom.Pt(20, 10), rng: 63}
	m.Attach(a)
	m.Attach(other)
	b := &fakeStation{id: 5, pos: geom.Pt(-2000, 3000), rng: 63}
	m.Attach(b)
	if m.Len() != 2 {
		t.Fatalf("Len = %d after re-attach, want 2", m.Len())
	}
	checkQueries(t, m, []Station{b, other}, 63, a.pos, b.pos)
	if got := m.Station(5); got != Station(b) {
		t.Fatal("Station(5) is not the re-attached station")
	}
	// Re-attaching the same station at the same place must not duplicate it.
	m.Attach(b)
	if got := idsOf(m.InRange(b.pos, 63, -2)); !slices.Equal(got, []NodeID{5}) {
		t.Fatalf("InRange after same-place re-attach = %v, want [5]", got)
	}
}

// TestGridFarList: a station whose cell the grid may not grow to cover —
// beyond the cell cap or at a non-finite position — goes to the far list,
// where queries still find it; moving it within reach, or detaching it,
// takes it off the list.
func TestGridFarList(t *testing.T) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	home := &fakeStation{id: 1, pos: geom.Pt(0, 0), rng: 63}
	m.Attach(home)
	remote := &fakeStation{id: 2, pos: geom.Pt(63*3000, 63*3000), rng: 63}
	m.Attach(remote)
	nan := &fakeStation{id: 3, pos: geom.Pt(math.NaN(), 5), rng: 63}
	m.Attach(nan)
	inf := &fakeStation{id: 4, pos: geom.Pt(math.Inf(1), 5), rng: 63}
	m.Attach(inf)
	if len(m.grid.far) != 3 {
		t.Fatalf("far list holds %d stations, want 3 (remote, NaN, +Inf)", len(m.grid.far))
	}
	if m.grid.w*m.grid.h > maxGridCells {
		t.Fatalf("grid grew to %d cells, past the %d cap", m.grid.w*m.grid.h, maxGridCells)
	}
	sts := []Station{home, remote, nan, inf}
	checkQueries(t, m, sts, 63, home.pos, remote.pos, geom.Pt(remote.pos.X-30, remote.pos.Y))

	// Move the remote station within reach: it leaves the far list.
	old := remote.pos
	remote.pos = geom.Pt(63*20, 63*20)
	m.Moved(2, old)
	if len(m.grid.far) != 2 {
		t.Fatalf("far list holds %d stations after the move, want 2", len(m.grid.far))
	}
	checkQueries(t, m, sts, 63, home.pos, remote.pos, old)

	m.Detach(3)
	m.Detach(4)
	if len(m.grid.far) != 0 {
		t.Fatalf("far list holds %d stations after detaching them", len(m.grid.far))
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

// TestGridGrowthRehomesFarStations: when the grid grows to cover a cell
// that holds far-listed stations, they move into it.
func TestGridGrowthRehomesFarStations(t *testing.T) {
	g := grid{size: 1}
	g.insert(1, cellKey{0, 0})
	// A station filed far while its cell was out of reach (as past the
	// cell cap), then growth toward it for another station.
	parked := cellKey{10, 0}
	g.far = append(g.far, farEntry{id: 9, k: parked})
	g.insert(2, cellKey{12, 0})
	if !g.covers(parked) || len(g.far) != 0 {
		t.Fatalf("growth covering cell %v left the far list at %v", parked, g.far)
	}
	if !slices.Contains(g.cells[g.index(parked)], 9) {
		t.Fatal("the far-listed station is not in its cell after growth")
	}
	// A cell past the cap is far-listed and the grid stays small.
	g.insert(3, cellKey{0, maxGridCells})
	if len(g.far) != 1 || g.w*g.h > maxGridCells {
		t.Fatalf("a cell past the cap: far list %v, grid %d×%d", g.far, g.w, g.h)
	}
}

// TestGridHugeQueryRadius: a query box reaching past the index's
// coordinate range still covers the whole grid.
func TestGridHugeQueryRadius(t *testing.T) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	var sts []Station
	for i := 0; i < 20; i++ {
		s := &fakeStation{id: NodeID(i + 1), pos: geom.Pt(float64(i)*100-900, float64(i%4)*300), rng: 63}
		m.Attach(s)
		sts = append(sts, s)
	}
	checkQueries(t, m, sts, 1e12, geom.Pt(0, 0), geom.Pt(5e11, -5e11))
	checkQueries(t, m, sts, math.Inf(1), geom.Pt(0, 0))
}

// TestGridGrowsGeometrically: stations attached one cell further out each
// time must not rebuild the grid once per cell.
func TestGridGrowsGeometrically(t *testing.T) {
	m, _, _ := newTestMedium(Config{CellSize: 1})
	reshapes, w := 0, 0
	for i := 0; i < 1000; i++ {
		m.Attach(&fakeStation{id: NodeID(i + 1), pos: geom.Pt(float64(i), 0), rng: 1})
		if m.grid.w != w {
			reshapes++
			w = m.grid.w
		}
	}
	if reshapes > 10 {
		t.Fatalf("%d rebuilds to cover 1000 cells in a row, want O(log n)", reshapes)
	}
}

// relayStation re-broadcasts synchronously from HandleFrame when it
// receives a frame of the depth it is the relay for, nesting deliveries
// the way a flood relay does, and logs every reception by depth.
type relayStation struct {
	fakeStation
	m       *Medium
	relayAt int // depth of frame this station relays; -1 for none
	log     map[int][]NodeID
}

func (s *relayStation) HandleFrame(f Frame) {
	d := f.Payload.(int)
	if s.log != nil {
		s.log[d] = append(s.log[d], s.id)
	}
	if d == s.relayAt {
		s.m.Send(Frame{Src: s.id, Dst: IDBroadcast, Category: metrics.CatLocUpdate, Payload: d + 1})
	}
}

// relayField deploys stations on a jittered grid and chains depth relays
// from station 1: the relay for each depth is a station in the middle of
// the previous sender's receiver list, so every nested delivery starts
// while the outer one still has receivers to go.
func relayField(depth int, log map[int][]NodeID) (*Medium, []*relayStation) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	var sts []*relayStation
	rng := gridRNG(7)
	for i := 0; i < 150; i++ {
		s := &relayStation{
			fakeStation: fakeStation{id: NodeID(i + 1), pos: geom.Pt(float64(i%15)*25+rng.float()*5, float64(i/15)*25+rng.float()*5), rng: 63},
			m:           m, relayAt: -1, log: log,
		}
		m.Attach(s)
		sts = append(sts, s)
	}
	sender := sts[0]
	used := map[NodeID]bool{sender.id: true}
	for d := 0; d < depth; d++ {
		var cands []*relayStation
		for _, st := range m.InRange(sender.pos, sender.rng, sender.id) {
			if rs := st.(*relayStation); !used[rs.id] {
				cands = append(cands, rs)
			}
		}
		next := cands[len(cands)/2]
		next.relayAt = d
		used[next.id] = true
		sender = next
	}
	return m, sts
}

// TestReentrantBroadcastNested: relays nested five deep inside HandleFrame
// each deliver to exactly the receiver set InRange reports for their
// sender, in ID order, and the outer deliveries resume intact afterwards.
func TestReentrantBroadcastNested(t *testing.T) {
	const depth = 5
	log := map[int][]NodeID{}
	m, sts := relayField(depth, log)
	m.Send(Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatLocUpdate, Payload: 0})
	sender := sts[0]
	for d := 0; d <= depth; d++ {
		want := idsOf(m.InRange(sender.pos, sender.rng, sender.id))
		if !slices.Equal(log[d], want) {
			t.Errorf("depth %d (sender %d): delivered to %v, InRange reports %v", d, sender.id, log[d], want)
		}
		if d == depth {
			break
		}
		for _, s := range sts {
			if s.relayAt == d {
				sender = s
			}
		}
	}
	if m.depth != 0 {
		t.Fatalf("scratch depth %d after the outermost send returned, want 0", m.depth)
	}
	if len(m.scratch) < depth+1 {
		t.Fatalf("scratch stack has %d levels, want ≥ %d", len(m.scratch), depth+1)
	}
}

// TestBroadcastSteadyStateAllocs: once warmed up, a plain broadcast, a
// broadcast whose relays nest five deep, and a routing query into a reused
// buffer allocate nothing.
func TestBroadcastSteadyStateAllocs(t *testing.T) {
	m, _ := relayField(5, nil)
	nested := Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatLocUpdate, Payload: 0}
	plain := Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatBeacon, Payload: 99}
	m.Send(nested)
	if a := testing.AllocsPerRun(200, func() { m.Send(plain) }); a != 0 {
		t.Errorf("steady-state broadcast: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { m.Send(nested) }); a != 0 {
		t.Errorf("nested broadcast: %v allocs/op, want 0", a)
	}
	buf := make([]RangeEntry, 0, 64)
	if a := testing.AllocsPerRun(200, func() { buf = m.AppendInRange(buf[:0], geom.Pt(100, 100), 63, 0) }); a != 0 {
		t.Errorf("AppendInRange into a reused buffer: %v allocs/op, want 0", a)
	}
}
