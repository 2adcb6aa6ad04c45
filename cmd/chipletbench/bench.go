package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

// benchMeasurement is one micro-benchmark's steady-state cost.
type benchMeasurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the machine-readable performance snapshot written by
// -bench: the event-scheduler micro-benchmarks plus a timed end-to-end
// run of every reproduction experiment.
type benchReport struct {
	GoMaxProcs       int              `json:"gomaxprocs"`
	EngineEventChurn benchMeasurement `json:"engine_event_churn"`
	EngineHeapFanout benchMeasurement `json:"engine_heap_fanout"`
	// NetworkIssue is the steady-state per-transaction cost (ns/txn,
	// allocs/txn) of the core issue path, keyed "kind/op/load" — the
	// whole-pipeline counterpart of the engine micro-benchmarks.
	NetworkIssue map[string]benchMeasurement `json:"network_issue"`
	// CellThroughput times the flagship Figure 4 cell end to end (see
	// benchCellThroughput).
	CellThroughput   cellThroughput `json:"cell_throughput"`
	ReproduceScale   int            `json:"reproduce_scale"`
	ReproduceSeconds float64        `json:"reproduce_seconds"`
}

// cellThroughput is the flagship cell's cost: CPU seconds (user+system,
// getrusage) beside wall seconds, the events the engine dispatched, the
// channel depart events departure stamps elided, and simulated time per
// CPU-second — the headline rate. Elided events are a diagnostic, not
// throughput: they count work the simulator avoided.
type cellThroughput struct {
	Cell         string  `json:"cell"`
	CPUSeconds   float64 `json:"cpu_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
	Events       uint64  `json:"events"`
	EventsFused  uint64  `json:"events_fused"`
	SimUS        float64 `json:"sim_us"`
	SimUSPerCPUS float64 `json:"sim_us_per_cpu_s"`
}

// cpuSeconds reports the process's user+system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// benchCellThroughput times one full Figure 4 cell — the 7302 inter-CC
// IF scenario under equal over-subscribing demands (seed 42, full
// length), the cell the simulator's speed is judged on.
func benchCellThroughput() (cellThroughput, error) {
	sc := harness.Figure4Scenarios()[3]
	c := harness.Fig4Cases()[2]
	cpu0, err := cpuSeconds()
	if err != nil {
		return cellThroughput{}, err
	}
	start := time.Now()
	_, perf, err := harness.Figure4CellThroughput(sc, c, harness.Options{Seed: 42, TimeScale: 1})
	if err != nil {
		return cellThroughput{}, err
	}
	wall := time.Since(start).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return cellThroughput{}, err
	}
	row := cellThroughput{
		Cell:        sc.Profile().Name + " " + sc.Link + " " + c.Name,
		CPUSeconds:  cpu1 - cpu0,
		WallSeconds: wall,
		Events:      perf.Events,
		EventsFused: perf.Fused,
		SimUS:       perf.Sim.Microseconds(),
	}
	row.SimUSPerCPUS = row.SimUS / row.CPUSeconds
	fmt.Printf("CellThroughput %s  %.2fs cpu  %.2fs wall  %d events + %d fused  %.0f sim us/cpu-s\n",
		row.Cell, row.CPUSeconds, row.WallSeconds, row.Events, row.EventsFused, row.SimUSPerCPUS)
	return row, nil
}

// benchNetworkIssue measures every DestKind x Op transaction shape on the
// EPYC 9634 profile, unloaded (one closed-loop chain) and loaded (twice
// the hardware window), mirroring internal/core's BenchmarkNetworkIssue.
func benchNetworkIssue() map[string]benchMeasurement {
	kinds := []struct {
		name string
		a    core.Access
	}{
		{"dram", core.Access{Kind: core.DestDRAM}},
		{"cxl", core.Access{Kind: core.DestCXL}},
		{"llc-intra", core.Access{Kind: core.DestLLCIntra}},
		{"llc-inter", core.Access{Kind: core.DestLLCInter, DstCCD: 1}},
	}
	ops := []struct {
		name string
		op   txn.Op
	}{
		{"read", txn.Read},
		{"write", txn.Write},
		{"ntwrite", txn.NTWrite},
	}
	out := make(map[string]benchMeasurement)
	for _, k := range kinds {
		for _, o := range ops {
			a := k.a
			a.Op = o.op
			for _, load := range []string{"unloaded", "loaded"} {
				loaded := load == "loaded"
				r := testing.Benchmark(func(b *testing.B) {
					eng := sim.New(1)
					net := core.New(eng, topology.EPYC9634())
					chains := 1
					if loaded {
						chains = 2 * net.WindowFor(a.Op, a.Kind)
					}
					net.DriveClosedLoop(a, chains, 2048)
					b.ReportAllocs()
					b.ResetTimer()
					net.DriveClosedLoop(a, chains, b.N)
				})
				key := k.name + "/" + o.name + "/" + load
				out[key] = measure(r)
				fmt.Printf("NetworkIssue %-26s %v\n", key, r)
			}
		}
	}
	return out
}

func measure(r testing.BenchmarkResult) benchMeasurement {
	return benchMeasurement{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runBenchSuite mirrors the internal/sim benchmarks (single-event churn
// and wide fanout) and times the full experiment suite at -scale 8, then
// writes the JSON report.
func runBenchSuite(path string) error {
	churn := testing.Benchmark(func(b *testing.B) {
		e := sim.New(1)
		b.ReportAllocs()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				e.After(units.Nanosecond, tick)
			}
		}
		b.ResetTimer()
		e.After(0, tick)
		e.Run()
	})
	fmt.Printf("EngineEventChurn  %v\n", churn)

	fanout := testing.Benchmark(func(b *testing.B) {
		e := sim.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.At(e.Now()+units.Time(i%1000)+1, func() {})
			if e.Pending() > 4096 {
				e.Step()
			}
		}
		e.Run()
	})
	fmt.Printf("EngineHeapFanout  %v\n", fanout)

	netIssue := benchNetworkIssue()

	cell, err := benchCellThroughput()
	if err != nil {
		return err
	}

	const scale = 8
	opt := harness.Options{Seed: 42, TimeScale: scale}
	start := time.Now()
	if err := runAllExperiments(opt); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("reproduce (scale %d)  %.1fs\n", scale, elapsed.Seconds())

	rep := benchReport{
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		EngineEventChurn: measure(churn),
		EngineHeapFanout: measure(fanout),
		NetworkIssue:     netIssue,
		CellThroughput:   cell,
		ReproduceScale:   scale,
		ReproduceSeconds: elapsed.Seconds(),
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runAllExperiments runs every table, figure and ablation the reproduce
// command covers, discarding the rendered output.
func runAllExperiments(opt harness.Options) error {
	for _, p := range topology.Profiles() {
		if _, err := harness.Table2(p, opt); err != nil {
			return err
		}
		harness.Table3(p, opt)
	}
	if _, err := harness.Figure3(opt); err != nil {
		return err
	}
	if _, err := harness.Figure4(opt); err != nil {
		return err
	}
	if _, err := harness.Figure5(opt); err != nil {
		return err
	}
	if _, err := harness.Figure6(opt); err != nil {
		return err
	}
	if _, err := harness.AblationTrafficManager(opt); err != nil {
		return err
	}
	for _, p := range topology.Profiles() {
		if _, err := harness.AblationNPS(p, opt); err != nil {
			return err
		}
	}
	if _, err := harness.AblationNUMA(opt); err != nil {
		return err
	}
	if _, err := harness.AblationCXLFlit(opt); err != nil {
		return err
	}
	if _, err := harness.AblationNoCModel(opt); err != nil {
		return err
	}
	return nil
}
