package harness

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
)

// TestFigure4CellTraceMatchesUntraced runs the congested UMC/GMI cell
// (scenario 1, equal over-subscribing demands) with the flight recorder
// on and checks the acceptance contract: identical bandwidth results to
// the untraced cell, >= 95% of total transaction latency attributed to
// named causes, and exact per-transaction span tilings away from the
// window boundaries.
func TestFigure4CellTraceMatchesUntraced(t *testing.T) {
	opt := Options{Seed: 42, TimeScale: 16, Workers: 1}
	tr := trace.New(trace.Config{SpanCap: 1 << 20})
	res, _, err := Figure4Cell(opt, 1, 2, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Figure4Cell(opt, 1, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != plain {
		t.Fatalf("tracing changed the result:\n traced: %+v\n plain:  %+v", res, plain)
	}
	if tr.TxnCount() == 0 || tr.SpanCount() == 0 {
		t.Fatalf("trace empty: %d txns, %d spans", tr.TxnCount(), tr.SpanCount())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("span ring wrapped (%d dropped) at this scale", tr.Dropped())
	}

	// Aggregate coverage: the breakdown must attribute >= 95% of the
	// total end-to-end latency (boundary transactions straddling the
	// enable edge account for the shortfall).
	var attributed units.Time
	for _, d := range tr.AttributedTime() {
		attributed += d
	}
	cov := float64(attributed) / float64(tr.TotalLatency())
	if cov < 0.95 {
		t.Fatalf("attributed %.2f%% of total latency, want >= 95%%", 100*cov)
	}

	// Per-transaction reconciliation: only transactions already in
	// flight when tracing was enabled may miss span time, and no
	// transaction may ever over-attribute (a negative residual would
	// mean overlapping spans).
	zero, positive := 0, 0
	for _, r := range tr.Reconcile() {
		switch {
		case r.Residual == 0:
			zero++
		case r.Residual > 0:
			positive++
		default:
			t.Fatalf("txn %d over-attributed: residual %v", r.Txn.ID, r.Residual)
		}
	}
	total := zero + positive
	if frac := float64(zero) / float64(total); frac < 0.99 {
		t.Fatalf("only %.2f%% of %d transactions tile exactly, want >= 99%%", 100*frac, total)
	}
}
