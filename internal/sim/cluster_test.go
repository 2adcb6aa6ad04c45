package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/units"
)

func TestNextAt(t *testing.T) {
	e := New(1)
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty calendar reported an event")
	}
	e.At(500, func() {})
	if at, ok := e.NextAt(); !ok || at != 500 {
		t.Fatalf("NextAt = %v, %v; want 500, true", at, ok)
	}
	// Far-future event lands in the overflow heap; NextAt must see it
	// without restructuring the calendar.
	e2 := New(1)
	e2.At(units.Time(wheelSpan)*3, func() {})
	if at, ok := e2.NextAt(); !ok || at != units.Time(wheelSpan)*3 {
		t.Fatalf("overflow NextAt = %v, %v; want %v, true", at, ok, units.Time(wheelSpan)*3)
	}
	// Earlier wheel event shadows the overflow minimum.
	e2.At(100, func() {})
	if at, ok := e2.NextAt(); !ok || at != 100 {
		t.Fatalf("mixed NextAt = %v, %v; want 100, true", at, ok)
	}
	if got := e2.Pending(); got != 2 {
		t.Fatalf("peeking disturbed the calendar: pending = %d, want 2", got)
	}
}

func TestExecutedCounts(t *testing.T) {
	e := New(7)
	for i := 0; i < 10; i++ {
		e.At(units.Time(i*100), func() {})
	}
	e.RunUntil(450)
	if got := e.Executed(); got != 5 {
		t.Fatalf("Executed after partial run = %d, want 5", got)
	}
	e.Run()
	if got := e.Executed(); got != 10 {
		t.Fatalf("Executed after full run = %d, want 10", got)
	}
}

// clusterTrace runs a deterministic cross-domain ping-pong workload and
// records every event execution as (domain, time, rng draw) lines, one
// trace per zone plus one for the control engine: traces[i] is zone i's,
// traces[zones] the control's. Each zone's trace is appended only by
// events running on that zone, so zones running concurrently never share
// a slice. Each control line also records how many events every zone had
// traced when it fired, pinning the control event's placement against
// every zone's stream. Equal traces across worker counts prove that the
// epoch machinery is invisible to the simulation: same per-zone event
// order, same per-domain clocks, same RNG streams, same control
// placement.
func clusterTrace(t *testing.T, zones, workers, rounds int, adaptive bool) [][]string {
	t.Helper()
	const look = units.Time(900)
	cl := NewCluster(42, zones, look, workers)
	defer cl.Shutdown()
	// adaptive=false pins the worker-barrier dispatch even on a single-P
	// host (where auto-degrade would otherwise force the serial loop), so
	// both dispatch mechanisms are exercised and compared.
	cl.SetAutoDegrade(adaptive)
	traces := make([][]string, zones+1)
	post := make([][]func(units.Time, func()), zones)
	for src := 0; src < zones; src++ {
		post[src] = make([]func(units.Time, func()), zones)
		for dst := 0; dst < zones; dst++ {
			if src != dst {
				post[src][dst] = cl.Poster(src, dst)
			}
		}
	}
	var hop func(src, dst, depth int) func()
	hop = func(src, dst, depth int) func() {
		return func() {
			z := cl.Zone(dst)
			traces[dst] = append(traces[dst], fmt.Sprintf("z%d t=%d r=%d", dst, z.Now(), z.Rand().Intn(1000)))
			if depth == 0 {
				return
			}
			// Local work at an RNG-chosen offset, then bounce to the next
			// domain after the link latency.
			z.After(units.Time(z.Rand().Intn(300)), func() {
				traces[dst] = append(traces[dst], fmt.Sprintf("z%d t=%d local", dst, z.Now()))
			})
			next := (dst + 1) % zones
			at := z.Now() + look + units.Time(z.Rand().Intn(200))
			post[dst][next](at, hop(dst, next, depth-1))
		}
	}
	for i := 0; i < zones; i++ {
		cl.Zone(i).At(units.Time(i*37), hop(i, i, rounds))
	}
	// Control events interleave at epoch barriers, never concurrently
	// with a zone, and every zone has executed exactly its events at or
	// before the control event's time when it fires — so the zone trace
	// lengths it records are deterministic.
	for k := 0; k < 5; k++ {
		at := units.Time(k * 7000)
		cl.Control().At(at, func() {
			seen := make([]int, zones)
			for i := range seen {
				seen[i] = len(traces[i])
			}
			traces[zones] = append(traces[zones], fmt.Sprintf("ctl t=%d seen=%v", at, seen))
		})
	}
	end := units.Time(rounds)*2000 + 20000
	cl.RunUntil(end)
	if cl.Now() != end {
		t.Fatalf("cluster parked at %v, want %v", cl.Now(), end)
	}
	for i := 0; i < zones; i++ {
		if cl.Zone(i).Now() != end {
			t.Fatalf("zone %d parked at %v, want %v", i, cl.Zone(i).Now(), end)
		}
	}
	return traces
}

func TestClusterDeterminism(t *testing.T) {
	const zones = 4
	base := clusterTrace(t, zones, 1, 40, true)
	for i, tr := range base {
		if len(tr) == 0 {
			t.Fatalf("trace %d of the serial run is empty", i)
		}
	}
	// Every worker count, through both dispatch mechanisms: the pinned
	// worker barrier (adaptive=false) and whatever auto-degrade chooses
	// (adaptive=true — the forced serial loop on a single-P host). Every
	// zone's trace and the control trace must replay the serial run's
	// exactly.
	for _, workers := range []int{2, 4, 8} {
		for _, adaptive := range []bool{false, true} {
			got := clusterTrace(t, zones, workers, 40, adaptive)
			for z := range base {
				who := fmt.Sprintf("zone %d", z)
				if z == zones {
					who = "control"
				}
				if len(got[z]) != len(base[z]) {
					t.Fatalf("workers=%d adaptive=%v: %s ran %d events, serial ran %d", workers, adaptive, who, len(got[z]), len(base[z]))
				}
				for i := range base[z] {
					if got[z][i] != base[z][i] {
						t.Fatalf("workers=%d adaptive=%v: %s event %d = %q, serial = %q", workers, adaptive, who, i, got[z][i], base[z][i])
					}
				}
			}
		}
	}
}

func TestClusterLookaheadViolationPanics(t *testing.T) {
	cl := NewCluster(1, 2, 1000, 1)
	p01 := cl.Poster(0, 1)
	cl.Zone(0).At(0, func() {
		// A post inside the epoch horizon would corrupt causality.
		defer func() {
			if recover() == nil {
				t.Error("post inside the horizon did not panic")
			}
		}()
		p01(cl.Zone(0).Now(), func() {})
	})
	cl.RunUntil(100)
}

// TestEpochMailboxRace hammers the epoch-barrier mailboxes from many
// domains under -race: every domain posts to every other domain each
// round, so each epoch exercises worker-side mailbox appends racing (or
// provably not racing) against coordinator drains and barrier atomics.
func TestEpochMailboxRace(t *testing.T) {
	const (
		zones  = 4
		look   = units.Time(500)
		rounds = 200
	)
	cl := NewCluster(99, zones, look, zones)
	defer cl.Shutdown()
	// Pin the worker barrier: the point is racing worker-side mailbox
	// appends against the coordinator, which the single-P forced degrade
	// would otherwise serialize away.
	cl.SetAutoDegrade(false)
	post := make([][]func(units.Time, func()), zones)
	for src := 0; src < zones; src++ {
		post[src] = make([]func(units.Time, func()), zones)
		for dst := 0; dst < zones; dst++ {
			if src != dst {
				post[src][dst] = cl.Poster(src, dst)
			}
		}
	}
	received := make([]int, zones)
	var burst func(src, depth int) func()
	burst = func(src, depth int) func() {
		return func() {
			received[src]++
			if depth == 0 {
				return
			}
			z := cl.Zone(src)
			for dst := 0; dst < zones; dst++ {
				if dst == src {
					continue
				}
				at := z.Now() + look + units.Time(z.Rand().Intn(100))
				post[src][dst](at, burst(dst, depth-1))
			}
			z.After(units.Time(z.Rand().Intn(64)), func() { received[src]++ })
		}
	}
	for i := 0; i < zones; i++ {
		cl.Zone(i).At(0, burst(i, 2))
	}
	for r := 0; r < rounds; r++ {
		cl.RunFor(look * 4)
		// Reseed the storm so mailboxes stay busy every epoch.
		for i := 0; i < zones; i++ {
			cl.Zone(i).After(0, burst(i, 2))
		}
	}
	total := 0
	for _, n := range received {
		total += n
	}
	if total == 0 {
		t.Fatal("no events executed")
	}
}

// TestIdleZoneSelfCycleBound pins the two halves of dynamic epoch
// negotiation on a zone whose neighbour is idle: the idle zone is skipped
// (never handed to a worker, imposes no constraint), and the busy zone is
// bounded only by its own shortest cycle through the topology (2*look for
// a two-zone ring) — so a thousand events spanning 1000 time units take
// five epochs, not a thousand fixed-lookahead steps. The final epoch also
// exercises the queue-empties-mid-epoch path: the zone's calendar drains
// before its bound, its cached next-event collapses to "idle", and the
// epoch loop terminates instead of spinning on an empty cluster.
func TestIdleZoneSelfCycleBound(t *testing.T) {
	const look = units.Time(100)
	cl := NewCluster(9, 2, look, 1)
	defer cl.Shutdown()
	cl.Poster(0, 1)
	cl.Poster(1, 0)
	n := 0
	for i := 0; i < 1000; i++ {
		cl.Zone(0).At(units.Time(i), func() { n++ })
	}
	cl.RunUntil(2000)
	if n != 1000 {
		t.Fatalf("executed %d events, want 1000", n)
	}
	st := cl.Stats()
	if st.Epochs != 5 {
		t.Fatalf("epochs = %d, want 5 (events 0..999 bounded by the 2*look self-cycle)", st.Epochs)
	}
}

// TestControlOnlyStream drives a cluster whose domains never have work:
// only the control engine holds events. Every control timestamp must fire
// exactly once, in order, in its own epoch, without ever running (or
// posting to) a domain engine.
func TestControlOnlyStream(t *testing.T) {
	cl := NewCluster(5, 3, 100, 2)
	defer cl.Shutdown()
	cl.Poster(0, 1)
	cl.Poster(1, 0)
	var fired []units.Time
	for k := 0; k < 8; k++ {
		at := units.Time(k * 333)
		cl.Control().At(at, func() { fired = append(fired, at) })
	}
	cl.RunUntil(5000)
	if len(fired) != 8 {
		t.Fatalf("fired %d control events, want 8", len(fired))
	}
	for k, at := range fired {
		if at != units.Time(k*333) {
			t.Fatalf("control event %d fired at %v, want %v", k, at, k*333)
		}
	}
	if cl.Now() != 5000 {
		t.Fatalf("cluster parked at %v, want 5000", cl.Now())
	}
	st := cl.Stats()
	if st.Epochs != 8 {
		t.Fatalf("epochs = %d, want 8 (one per control timestamp)", st.Epochs)
	}
	if st.ParallelEpochs != 0 || st.Posted != 0 {
		t.Fatalf("control-only run dispatched workers or mail: %+v", st)
	}
}

// TestMailArrivingAtEpochBound pins the boundary semantics: epoch bounds
// are exclusive (a zone runs events strictly before its bound), so mail
// timed exactly at the destination's bound is legal — it lands on the
// horizon, not inside it — and must execute at precisely its timestamp in
// a later epoch. The minimum-latency ping-pong here posts every bounce at
// exactly now+look, which is exactly the receiving zone's negotiated
// bound; the zones also alternate between busy and empty, covering the
// wake-from-idle drain path each round.
func TestMailArrivingAtEpochBound(t *testing.T) {
	const (
		look   = units.Time(100)
		rounds = 50
	)
	cl := NewCluster(3, 2, look, 1)
	defer cl.Shutdown()
	p01 := cl.Poster(0, 1)
	p10 := cl.Poster(1, 0)
	var times []units.Time
	var ping, pong func()
	ping = func() {
		z := cl.Zone(0)
		times = append(times, z.Now())
		if len(times) < rounds {
			p01(z.Now()+look, pong)
		}
	}
	pong = func() {
		z := cl.Zone(1)
		times = append(times, z.Now())
		if len(times) < rounds {
			p10(z.Now()+look, ping)
		}
	}
	cl.Zone(0).At(0, ping)
	cl.RunUntil(look * (rounds + 2))
	if len(times) != rounds {
		t.Fatalf("executed %d bounces, want %d", len(times), rounds)
	}
	for i, at := range times {
		if at != units.Time(i)*look {
			t.Fatalf("bounce %d ran at %v, want %v", i, at, units.Time(i)*look)
		}
	}
}

// TestAutoDegradeTransitions walks the estimator across its hysteresis
// band on a (temporarily) multi-P runtime: a dense phase holds the worker
// barrier, a sparse ping-pong starves the EWMA below the degrade
// threshold (collapse to the serial loop), and a second dense phase
// fattens it back above the expand threshold (workers re-engage).
func TestAutoDegradeTransitions(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	const look = units.Time(1000)
	cl := NewCluster(11, 2, look, 2)
	defer cl.Shutdown()
	p01 := cl.Poster(0, 1)
	p10 := cl.Poster(1, 0)
	// The two zones really run concurrently here (GOMAXPROCS=2), so the
	// shared progress counter must be atomic — unlike the simulation state,
	// which stays zone-private by construction.
	var exec atomic.Int64
	dense := func(zi int, until units.Time) {
		z := cl.Zone(zi)
		var tick func()
		tick = func() {
			exec.Add(1)
			if z.Now() < until {
				z.After(1, tick)
			}
		}
		z.After(0, tick)
	}

	// Dense phase: ~look events per zone per epoch, far above expandAbove.
	dense(0, 20*look)
	dense(1, 20*look)
	cl.RunUntil(20 * look)
	if cl.Degraded() {
		t.Fatal("dense workload degraded to the serial loop")
	}
	if st := cl.Stats(); st.ParallelEpochs == 0 {
		t.Fatalf("dense workload never used the worker barrier: %+v", st)
	}

	// Sparse phase: one event per epoch; the EWMA must sink below
	// degradeBelow and collapse dispatch.
	var ping, pong func()
	ping = func() { p01(cl.Zone(0).Now()+look, pong); exec.Add(1) }
	pong = func() { p10(cl.Zone(1).Now()+look, ping); exec.Add(1) }
	cl.Zone(0).After(0, ping)
	cl.RunFor(200 * look)
	if !cl.Degraded() {
		t.Fatalf("sparse workload did not degrade: %+v", cl.Stats())
	}
	if st := cl.Stats(); st.Degrades == 0 {
		t.Fatalf("degrade transition not counted: %+v", st)
	}

	// Dense again: the EWMA must recover and re-engage the workers.
	dense(0, cl.Now()+20*look)
	dense(1, cl.Now()+20*look)
	cl.RunFor(20 * look)
	if cl.Degraded() {
		t.Fatalf("dense workload did not re-expand: %+v", cl.Stats())
	}
	if st := cl.Stats(); st.Expands == 0 {
		t.Fatalf("expand transition not counted: %+v", st)
	}
	if exec.Load() == 0 {
		t.Fatal("no events executed")
	}
}

// BenchmarkEpochBarrier measures the steady-state cost of one epoch,
// including a cross-domain exchange each way. ci.sh gates this at
// 0 allocs/op: the epoch machinery must not allocate on the hot path.
func BenchmarkEpochBarrier(b *testing.B) {
	const look = units.Time(1000)
	cl := NewCluster(7, 2, look, 2)
	defer cl.Shutdown()
	// Measure the worker-barrier machinery itself, not the serial loop the
	// estimator would (rightly) pick for a two-events-per-epoch ping-pong.
	cl.SetAutoDegrade(false)
	p01 := cl.Poster(0, 1)
	p10 := cl.Poster(1, 0)
	var ping, pong func()
	ping = func() {
		z := cl.Zone(0)
		p01(z.Now()+look, pong)
	}
	pong = func() {
		z := cl.Zone(1)
		p10(z.Now()+look, ping)
	}
	cl.Zone(0).At(0, ping)
	cl.RunUntil(look * 64) // warm up buffers, spare arrays, worker paths
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.RunFor(look)
	}
}
