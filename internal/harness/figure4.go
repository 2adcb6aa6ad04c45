package harness

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"

	icore "repro/internal/core"
)

// Fig4Scenario describes two competing flows sharing one link.
type Fig4Scenario struct {
	Profile  func() *topology.Profile
	Link     string // "IF", "UMC/GMI", "P Link"
	Capacity units.Bandwidth
	FlowA    func(*topology.Profile) traffic.FlowConfig
	FlowB    func(*topology.Profile) traffic.FlowConfig
	// Converge is the warmup before measuring: the injection controllers
	// need ~90 adaptation epochs, so links with the slow P-link epoch
	// (62 us) converge in milliseconds — the simulated counterpart of the
	// paper's hundreds-of-milliseconds hardware time constants.
	Converge units.Time
}

// Fig4Case is one demand pair, expressed as fractions of the shared-link
// capacity. The four cases follow the paper's Figure 4: under-subscribed;
// one flow below the equal share; equal over-subscribing demands; and
// unequal over-subscribing demands.
type Fig4Case struct {
	Name         string
	FracA, FracB float64
}

// Fig4Cases lists the paper's four demand configurations.
func Fig4Cases() []Fig4Case {
	return []Fig4Case{
		{Name: "case1 under-subscribed", FracA: 0.30, FracB: 0.45},
		{Name: "case2 one below share", FracA: 0.30, FracB: 1.50},
		{Name: "case3 equal demands", FracA: 0.90, FracB: 0.90},
		{Name: "case4 unequal demands", FracA: 0.70, FracB: 1.40},
	}
}

// Fig4Result is the outcome of one (scenario, case) cell.
type Fig4Result struct {
	Profile, Link, Case            string
	DemandA, DemandB               units.Bandwidth
	AchievedA, AchievedB, Capacity units.Bandwidth
}

// adaptiveFlow builds a flow config with the §3.5 injection controller on.
func adaptiveFlow(name string, cores []topology.CoreID, op txn.Op, kind icore.DestKind, umcs, mods []int, dstCCD int) traffic.FlowConfig {
	return traffic.FlowConfig{
		Name: name, Cores: cores, Op: op, Kind: kind,
		UMCs: umcs, Modules: mods, DstCCD: dstCCD,
		Window: 8, Adaptive: true,
	}
}

// ccxCores enumerates the cores of one CCX.
func ccxCores(p *topology.Profile, ccd, ccx int) []topology.CoreID {
	var out []topology.CoreID
	for c := 0; c < p.CoresPerCCX(); c++ {
		out = append(out, topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
	}
	return out
}

// Figure4Scenarios lists the shared-link settings: on the 9634, the
// intra-chiplet Infinity Fabric, a shared memory channel (the GMI/UMC
// boundary; chiplets 2 and 3 are equidistant from channel 0), and a shared
// P link; on the 7302, the inter-chiplet IF (two chiplets targeting the
// same remote LLC) and a shared memory channel off one chiplet's two CCXs.
func Figure4Scenarios() []Fig4Scenario {
	return []Fig4Scenario{
		{
			Profile: topology.EPYC9634, Link: "IF", Capacity: units.GBps(33), Converge: 1500 * units.Microsecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", firstCores(p, 3), txn.Read, icore.DestLLCIntra, nil, nil, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				cs := ccdCores(p, 0)[3:7]
				return adaptiveFlow("B", cs, txn.Read, icore.DestLLCIntra, nil, nil, 0)
			},
		},
		{
			Profile: topology.EPYC9634, Link: "UMC/GMI", Capacity: units.GBps(34.9), Converge: 1500 * units.Microsecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccxCores(p, 2, 0)[:5], txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccxCores(p, 3, 0)[:5], txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
		},
		{
			Profile: topology.EPYC9634, Link: "P Link", Capacity: units.GBps(22), Converge: 6 * units.Millisecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccxCores(p, 2, 0)[:5], txn.Read, icore.DestCXL, nil, []int{0}, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccxCores(p, 3, 0)[:5], txn.Read, icore.DestCXL, nil, []int{0}, 0)
			},
		},
		{
			Profile: topology.EPYC7302, Link: "IF", Capacity: units.GBps(24), Converge: 2 * units.Millisecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccdCores(p, 0), txn.Read, icore.DestLLCInter, nil, nil, 1)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccdCores(p, 2), txn.Read, icore.DestLLCInter, nil, nil, 1)
			},
		},
		{
			Profile: topology.EPYC7302, Link: "UMC/GMI", Capacity: units.GBps(21.1), Converge: 1500 * units.Microsecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccxCores(p, 0, 0), txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccxCores(p, 0, 1), txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
		},
	}
}

// CellPerf is a cell's execution-cost readout: how many simulation
// events it ran, how many channel depart events departure stamps elided,
// and how much simulated time it covered.
type CellPerf struct {
	Events uint64     // calendar events dispatched
	Fused  uint64     // depart events elided by departure stamps
	Sim    units.Time // simulated time covered, warmup included
}

// Figure4Cell runs one Figure 4 (scenario, demand case) cell on its own
// engine with optional observers: a flight recorder tr and a
// windowed-metrics registry reg, either of which may be nil (not
// attached). Both are attached before any traffic runs and are active
// for exactly the steady-state measurement window (after convergence and
// the stats reset), so spans and harvest windows describe the interval
// the achieved-bandwidth numbers summarize, on one clock: a metrics
// window's [start, end) keys directly into the tracer
// (trace.SpansInWindow, anomaly.Fuse).
//
// The caller builds the observers (span capacity, harvest window) and
// reads them after the cell returns; detectors attached to reg with
// anomaly.Attach before the call, or any OnHarvest callback, see every
// window as the simulation runs. The cell runs serially regardless of
// opt.Workers — observers are engine-local. The result is identical with
// any combination attached — observability observes, never steers. The
// CellPerf readout covers the whole cell, warmup included.
func Figure4Cell(opt Options, scenario, demandCase int, tr *trace.Tracer, reg *metrics.Registry) (Fig4Result, CellPerf, error) {
	scs := Figure4Scenarios()
	if scenario < 0 || scenario >= len(scs) {
		return Fig4Result{}, CellPerf{}, fmt.Errorf("harness: scenario %d out of range [0,%d)", scenario, len(scs))
	}
	cases := Fig4Cases()
	if demandCase < 0 || demandCase >= len(cases) {
		return Fig4Result{}, CellPerf{}, fmt.Errorf("harness: demand case %d out of range [0,%d)", demandCase, len(cases))
	}
	return figure4Cell(scs[scenario], cases[demandCase], opt, tr, reg)
}

// figure4Cell runs one (scenario, demand case) cell on a private engine
// with the optional observers of Figure4Cell.
func figure4Cell(sc Fig4Scenario, c Fig4Case, opt Options, tr *trace.Tracer, reg *metrics.Registry) (Fig4Result, CellPerf, error) {
	p := sc.Profile()
	net := opt.newNet(p)
	if tr != nil {
		net.AttachTracer(tr)
	}
	if reg != nil {
		net.AttachMetrics(reg)
	}
	cfgA, cfgB := sc.FlowA(p), sc.FlowB(p)
	cfgA.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracA)
	cfgB.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracB)
	fa, err := traffic.NewFlow(net, cfgA)
	if err != nil {
		return Fig4Result{}, CellPerf{}, err
	}
	fb, err := traffic.NewFlow(net, cfgB)
	if err != nil {
		return Fig4Result{}, CellPerf{}, err
	}
	fa.Start()
	fb.Start()
	// Convergence time is set by the adaptation epochs, which model
	// hardware time constants — it must not shrink with TimeScale.
	eng := net.Engine()
	eng.RunFor(sc.Converge)
	fa.ResetStats()
	fb.ResetStats()
	if tr != nil {
		tr.Enable()
	}
	if reg != nil {
		reg.Start(eng)
	}
	eng.RunFor(opt.scale(600 * units.Microsecond))
	if reg != nil {
		reg.Stop()
	}
	if tr != nil {
		tr.Disable()
	}
	perf := CellPerf{Events: net.EventsExecuted(), Fused: net.EventsFused(), Sim: eng.Now()}
	return Fig4Result{
		Profile: p.Name, Link: sc.Link, Case: c.Name,
		DemandA: cfgA.Demand, DemandB: cfgB.Demand,
		AchievedA: fa.Achieved(), AchievedB: fb.Achieved(),
		Capacity: sc.Capacity,
	}, perf, nil
}

// Figure4Run evaluates one scenario across the four demand cases.
func Figure4Run(sc Fig4Scenario, opt Options) ([]Fig4Result, error) {
	cases := Fig4Cases()
	return runCells(opt, len(cases), func(i int) (Fig4Result, error) {
		res, _, err := figure4Cell(sc, cases[i], opt, nil, nil)
		return res, err
	})
}

// Figure4 evaluates every scenario and case, one cell per
// (scenario, case) pair across the worker pool.
func Figure4(opt Options) ([]Fig4Result, error) {
	scs := Figure4Scenarios()
	cases := Fig4Cases()
	return runCells(opt, len(scs)*len(cases), func(i int) (Fig4Result, error) {
		res, _, err := figure4Cell(scs[i/len(cases)], cases[i%len(cases)], opt, nil, nil)
		return res, err
	})
}

// RenderFigure4 renders the partition grid as text.
func RenderFigure4(rows []Fig4Result) string {
	out := [][]string{{"Profile", "Link", "Case", "Demand A/B (GB/s)", "Achieved A/B (GB/s)", "Equal share"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Profile, r.Link, r.Case,
			gb(r.DemandA) + "/" + gb(r.DemandB),
			gb(r.AchievedA) + "/" + gb(r.AchievedB),
			fmt.Sprintf("%.1f", r.Capacity.GBpsValue()/2),
		})
	}
	return "Figure 4 — bandwidth partitioning of two competing flows\n" + renderTable(out)
}
