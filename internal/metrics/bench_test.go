package metrics_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// instrumentedNet builds the full EPYC 9634 network with every channel,
// pool and device registered — the production-sized probe table
// (thousands of instruments).
func instrumentedNet() (*sim.Engine, *metrics.Registry) {
	eng := sim.New(7)
	net := core.New(eng, topology.EPYC9634())
	reg := metrics.New(metrics.Config{})
	net.AttachMetrics(reg)
	reg.Start(eng)
	return eng, reg
}

// BenchmarkMetricsHarvest measures one harvest tick over the full
// network's instrument table. ci.sh gates it at 0 allocs/op: the rings
// are preallocated at Start and rescheduling reuses the pre-bound
// callback.
func BenchmarkMetricsHarvest(b *testing.B) {
	eng, reg := instrumentedNet()
	// Warm the calendar's overflow structures before measuring.
	eng.RunFor(4 * metrics.DefaultWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(metrics.DefaultWindow)
	}
	if reg.Total() < b.N {
		b.Fatalf("harvested %d windows, want >= %d", reg.Total(), b.N)
	}
}

// TestHarvestAllocs is the same 0-alloc contract as a plain test, so
// `go test` catches a regression without running benchmarks.
func TestHarvestAllocs(t *testing.T) {
	eng, _ := instrumentedNet()
	eng.RunFor(4 * metrics.DefaultWindow)
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunFor(metrics.DefaultWindow)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per harvest window, want 0", allocs)
	}
}

// trackBench registers the channel probe set the core wiring uses,
// giving the churn fixture real instruments to harvest.
func trackBench(reg *metrics.Registry, ch *link.Channel) {
	reg.Counter(ch.Name(), metrics.MetricBytes, "link", "bytes", func() float64 { return float64(ch.Bytes()) })
	reg.Counter(ch.Name(), metrics.MetricMsgs, "link", "msgs", func() float64 { return float64(ch.Messages()) })
	reg.Counter(ch.Name(), metrics.MetricBusy, "link", "ps", func() float64 { return float64(ch.BusyTime()) })
	reg.Counter(ch.Name(), metrics.MetricWait, "link", "ps", func() float64 { return float64(ch.QueueWaitTotal()) })
	reg.Counter(ch.Name(), metrics.MetricRefused, "link", "msgs", func() float64 { return float64(ch.Refused()) })
	reg.Gauge(ch.Name(), metrics.MetricDepth, "link", "msgs", func() float64 { return float64(ch.Queued()) })
}

// churnChannel builds the event-churn fixture from the tracer benchmarks:
// a serialized channel whose send->depart->resend loop exercises the
// engine hot path. mode selects no registry, attached-but-unstarted, or
// harvesting.
func churnChannel(mode string) (*sim.Engine, *link.Channel, *metrics.Registry) {
	eng := sim.New(1)
	ch := link.NewChannel(eng, "bench", units.GBps(32), units.Nanosecond, 0)
	var reg *metrics.Registry
	if mode != "none" {
		reg = metrics.New(metrics.Config{})
		trackBench(reg, ch)
		if mode == "harvesting" {
			reg.Start(eng)
		}
	}
	return eng, ch, reg
}

// churn drives n sends through the channel, re-arming from the delivery
// callback so exactly one message is in flight — pure event churn. The
// last delivery stops the registry so its self-rescheduling harvest
// chain winds down and eng.Run can drain.
func churn(eng *sim.Engine, ch *link.Channel, reg *metrics.Registry, n int) {
	sent := 0
	var send func()
	send = func() {
		sent++
		if sent < n {
			ch.Send(units.CacheLine, send)
		} else if reg != nil && reg.Running() {
			reg.Stop()
		}
	}
	ch.Send(units.CacheLine, send)
	eng.Run()
}

func benchChurn(b *testing.B, mode string) {
	eng, ch, reg := churnChannel(mode)
	b.ReportAllocs()
	b.ResetTimer()
	churn(eng, ch, reg, b.N)
}

func BenchmarkChannelChurnNoMetrics(b *testing.B)         { benchChurn(b, "none") }
func BenchmarkChannelChurnMetricsUnstarted(b *testing.B)  { benchChurn(b, "unstarted") }
func BenchmarkChannelChurnMetricsHarvesting(b *testing.B) { benchChurn(b, "harvesting") }

// TestEnabledMetricsOverhead is the enabled-cost contract: a harvesting
// registry amortizes one probe sweep over the tens of thousands of
// events a window contains, so the event hot path must stay within ~5%
// of the uninstrumented run (plus a small absolute epsilon for timer
// noise). ci.sh runs this explicitly. The baseline is the same fixture
// with its registry attached but not started: without Start there is no
// harvest event and no hook site, so it runs exactly the uninstrumented
// code (TestUnstartedRegistryInvisible checks the run is unchanged).
func TestEnabledMetricsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	// Both modes drive one fixture, starting its registry or not, so they
	// share its memory layout: across fixtures layout alone moves the
	// per-send cost by more than the bound. They alternate in bursts of
	// 1<<20 sends (~60 ms of host time, ~3 ms simulated: long enough that
	// every harvesting burst pays its share of some 30 harvest windows),
	// each round swapping which goes first, so host load that comes and
	// goes slows both alike; each mode keeps its best of 30 bursts.
	eng, ch, reg := churnChannel("unstarted")
	run := func(harvest bool) float64 {
		if harvest {
			reg.Start(eng) // churn stops it after the last send
		}
		start := time.Now()
		churn(eng, ch, reg, 1<<20)
		return float64(time.Since(start).Nanoseconds()) / (1 << 20)
	}
	none, harvesting := math.Inf(1), math.Inf(1)
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			none = math.Min(none, run(false))
			harvesting = math.Min(harvesting, run(true))
		} else {
			harvesting = math.Min(harvesting, run(true))
			none = math.Min(none, run(false))
		}
	}
	if reg.Total() < 15*30 {
		t.Fatalf("harvested %d windows, want >= %d", reg.Total(), 15*30)
	}
	limit := none*1.05 + 2.0 // 5% plus 2 ns absolute slack
	t.Logf("none=%.1f ns/op harvesting=%.1f ns/op limit=%.1f ns/op", none, harvesting, limit)
	if harvesting > limit {
		t.Fatalf("harvesting registry too slow: %.1f ns/op vs none %.1f ns/op (limit %.1f)",
			harvesting, none, limit)
	}
}

// TestUnstartedRegistryInvisible: an attached-but-unstarted registry
// must leave the simulation byte-identical — no events, no samples, no
// perturbation of any channel counter.
func TestUnstartedRegistryInvisible(t *testing.T) {
	run := func(mode string) (units.Time, link.Stats) {
		eng, ch, reg := churnChannel(mode)
		churn(eng, ch, reg, 5000)
		return eng.Now(), ch.Stats()
	}
	plainNow, plainStats := run("none")
	attachedNow, attachedStats := run("unstarted")
	if plainNow != attachedNow || plainStats != attachedStats {
		t.Fatalf("unstarted registry perturbed the run: %v/%+v vs %v/%+v",
			plainNow, plainStats, attachedNow, attachedStats)
	}
}
