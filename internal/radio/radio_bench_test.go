package radio

import (
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/sim"
)

// benchStation is a Station whose receive path does no bookkeeping, so
// the benchmarks measure the medium alone.
type benchStation struct {
	id  NodeID
	pos geom.Point
	rng float64
}

func (s *benchStation) RadioID() NodeID      { return s.id }
func (s *benchStation) RadioPos() geom.Point { return s.pos }
func (s *benchStation) RadioRange() float64  { return s.rng }
func (s *benchStation) RadioActive() bool    { return true }
func (s *benchStation) HandleFrame(Frame)    {}

// BenchmarkMediumBroadcast measures the broadcast hot path — spatial-index
// lookup, neighbor sort, and delivery — at the paper's sensor density
// (~50 sensors per 200 m × 200 m, 63 m range ⇒ ~15 neighbors per send).
// The allocs/op figure tracks the de-allocation work: with the reusable
// scratch buffer a steady-state broadcast should allocate nothing.
func BenchmarkMediumBroadcast(b *testing.B) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	const side = 200.0
	const n = 50
	// Deterministic jittered-grid deployment, no RNG needed.
	for i := 0; i < n; i++ {
		x := float64(i%7) * (side / 7)
		y := float64(i/7) * (side / 7)
		m.Attach(&benchStation{id: NodeID(i + 1), pos: geom.Pt(x, y), rng: 63})
	}
	f := Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatBeacon}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(f)
	}
}

// BenchmarkNeighborsDense measures a broadcast in a pathologically dense
// cell: 256 stations all within range of the sender, an order of magnitude
// past the sortCutover, so the neighbor sort runs through slices.SortFunc
// instead of the short-list insertion sort. Steady state must still be
// allocation-free.
func BenchmarkNeighborsDense(b *testing.B) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	const n = 256
	for i := 0; i < n; i++ {
		// A tight 16x16 cluster, 3 m pitch: every station hears every send.
		x := float64(i%16) * 3
		y := float64(i/16) * 3
		m.Attach(&benchStation{id: NodeID(i + 1), pos: geom.Pt(x, y), rng: 63})
	}
	f := Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatBeacon}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(f)
	}
}

// BenchmarkMediumBroadcastNested measures a broadcast whose receivers
// relay synchronously from HandleFrame, nesting five deliveries the way a
// location-update flood does. Every nesting level reuses its own scratch
// buffer, so steady state allocates nothing.
func BenchmarkMediumBroadcastNested(b *testing.B) {
	m, _ := relayField(5, nil)
	f := Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatLocUpdate, Payload: 0}
	m.Send(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(f)
	}
}

// BenchmarkMediumUnicast is the point-to-point counterpart: one map
// lookup, one range check, one delivery.
func BenchmarkMediumUnicast(b *testing.B) {
	m, _, _ := newTestMedium(Config{CellSize: 63})
	m.Attach(&benchStation{id: 1, pos: geom.Pt(0, 0), rng: 63})
	m.Attach(&benchStation{id: 2, pos: geom.Pt(30, 0), rng: 63})
	f := Frame{Src: 1, Dst: 2, Category: metrics.CatFailureReport}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(f)
	}
}

// BenchmarkMediumBroadcastLatency exercises the deferred-delivery path,
// which schedules one event per send (pooled by the scheduler).
func BenchmarkMediumBroadcastLatency(b *testing.B) {
	sched := sim.NewScheduler()
	reg := metrics.NewRegistry()
	m, err := NewMedium(sched, reg, Config{CellSize: 63, Latency: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Attach(&benchStation{id: NodeID(i + 1), pos: geom.Pt(float64(i*3), 0), rng: 63})
	}
	f := Frame{Src: 1, Dst: IDBroadcast, Category: metrics.CatBeacon}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(f)
		sched.RunAll()
	}
}
