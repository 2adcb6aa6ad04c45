package trace_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// churnChannel builds the event-churn fixture: a serialized channel whose
// send->depart->resend loop exercises the same engine hot path as
// BenchmarkEngineEventChurn in internal/sim, plus the channel's tracer
// hook site. mode selects nil tracer, attached-but-disabled, or enabled.
func churnChannel(mode string) (*sim.Engine, *link.Channel, *trace.Tracer) {
	eng := sim.New(1)
	ch := link.NewChannel(eng, "bench", units.GBps(32), units.Nanosecond, 0)
	var tr *trace.Tracer
	switch mode {
	case "disabled":
		tr = trace.New(trace.Config{SpanCap: 1 << 16})
		ch.SetTracer(tr)
	case "enabled":
		tr = trace.New(trace.Config{SpanCap: 1 << 16})
		ch.SetTracer(tr)
		tr.Enable()
	}
	return eng, ch, tr
}

// churn drives n sends through the channel, re-arming from the delivery
// callback so exactly one message is in flight — pure event churn.
func churn(eng *sim.Engine, ch *link.Channel, n int) {
	sent := 0
	var send func()
	send = func() {
		sent++
		if sent < n {
			ch.Send(units.CacheLine, send)
		}
	}
	ch.Send(units.CacheLine, send)
	eng.Run()
}

func benchChurn(b *testing.B, mode string) {
	eng, ch, _ := churnChannel(mode)
	b.ReportAllocs()
	b.ResetTimer()
	churn(eng, ch, b.N)
}

func BenchmarkChannelChurnNilTracer(b *testing.B)      { benchChurn(b, "nil") }
func BenchmarkChannelChurnDisabledTracer(b *testing.B) { benchChurn(b, "disabled") }
func BenchmarkChannelChurnEnabledTracer(b *testing.B)  { benchChurn(b, "enabled") }

// TestDisabledTracerOverhead is the off-by-default overhead contract:
// attaching a tracer without enabling it must not slow the channel/engine
// hot path by more than ~5% (plus a small absolute epsilon for timer
// noise on loaded machines). ci.sh runs this explicitly.
func TestDisabledTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("overhead thresholds are meaningless under race instrumentation; the dedicated ci.sh leg gates this")
	}
	// Both modes drive one fixture, detaching and re-attaching the
	// tracer, so they share its memory layout: across fixtures layout
	// alone moves the per-send cost by more than the bound. They alternate
	// in short bursts (1<<16 sends, a few ms), each round swapping which
	// goes first, so host load that comes and goes slows both alike; each
	// mode keeps its best of 300 bursts.
	eng, ch, _ := churnChannel("nil")
	tr := trace.New(trace.Config{SpanCap: 1 << 16})
	run := func(attached *trace.Tracer) float64 {
		ch.SetTracer(attached)
		start := time.Now()
		churn(eng, ch, 1<<16)
		return float64(time.Since(start).Nanoseconds()) / (1 << 16)
	}
	nil_, disabled := math.Inf(1), math.Inf(1)
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			nil_ = math.Min(nil_, run(nil))
			disabled = math.Min(disabled, run(tr))
		} else {
			disabled = math.Min(disabled, run(tr))
			nil_ = math.Min(nil_, run(nil))
		}
	}
	limit := nil_*1.05 + 2.0 // 5% plus 2 ns absolute slack
	t.Logf("nil=%.1f ns/op disabled=%.1f ns/op limit=%.1f ns/op", nil_, disabled, limit)
	if disabled > limit {
		t.Fatalf("attached-but-disabled tracer too slow: %.1f ns/op vs nil %.1f ns/op (limit %.1f)",
			disabled, nil_, limit)
	}
}

// TestHotPathAllocs: the hooks must not allocate, even when enabled —
// the ring and counters are preallocated.
func TestHotPathAllocs(t *testing.T) {
	for _, mode := range []string{"nil", "disabled", "enabled"} {
		eng, ch, _ := churnChannel(mode)
		// Warm the engine's free lists and the channel's state.
		churn(eng, ch, 64)
		allocs := testing.AllocsPerRun(200, func() {
			ch.Send(units.CacheLine, nil)
			eng.Run()
		})
		if allocs != 0 {
			t.Fatalf("mode %s: %v allocs per send on the hot path", mode, allocs)
		}
	}
}

// TestEnabledTracerRecordsChurn sanity-checks the fixture actually hits
// the hook: the enabled run must record spans and meter the bytes.
func TestEnabledTracerRecordsChurn(t *testing.T) {
	eng, ch, tr := churnChannel("enabled")
	churn(eng, ch, 100)
	c := tr.Counters(ch.Hop())
	if c.Meter.Ops() != 100 {
		t.Fatalf("metered %d messages, want 100", c.Meter.Ops())
	}
	// Each message serializes and propagates; back-to-back resends from
	// the delivery callback never queue.
	if tr.SpanCount() != 200 {
		t.Fatalf("recorded %d spans, want 200", tr.SpanCount())
	}
	if c.ByCause[trace.CauseQueued] != 0 {
		t.Fatalf("unexpected queueing in churn fixture: %v", c.ByCause)
	}
}
