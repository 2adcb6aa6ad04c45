// Command reproduce regenerates the paper's tables and figures on the
// simulated platforms and prints them next to the paper's reported values.
//
// Usage:
//
//	reproduce [-experiment all|table1|table2|table3|fig3|fig4|fig5|fig6] [-scale N] [-seed N] [-workers N]
//	reproduce -trace out.json [-scenario N] [-case N] [-trace-spans N] [-scale N] [-seed N]
//	reproduce -stats out.json [-stats-experiment fig4|fig5] [-scenario N] [-case N]
//	          [-stats-window D] [-stats-format json|openmetrics|csv] [-stats-top N]
//	reproduce -trace fused.json -stats stats.json [-scenario N] [-case N]
//	          [-stats-window D] [-stats-format ...]
//
// -scale divides the steady-state measurement windows (1 = full length, as
// recorded in EXPERIMENTS.md; larger is faster but noisier). -workers sets
// how many experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial);
// results are identical for every worker count.
//
// -trace and -stats each attach an observer to ONE cell, selected by
// -scenario and -case (the case applies to Figure 4 only), and run it
// once. -trace attaches the hop-level flight recorder to a Figure 4 cell
// over the measurement window, prints the latency-breakdown and per-hop
// counter reports, and writes the spans as Chrome trace_event JSON (open
// at https://ui.perfetto.dev; inspect later with cmd/chiplettrace).
// -stats attaches the windowed-metrics registry with the online anomaly
// detectors to a Figure 4 cell, or with -stats-experiment fig5 to a
// Figure 5 panel, streams a top-like per-window bottleneck view while the
// simulation runs, prints the family summary, the ranked bottleneck
// report and the incident table, and writes the full per-window series
// in the chosen format (inspect a JSON dump later with cmd/chipletstat).
//
// With both, the recorder and the registry observe the same engine over
// the same measurement window, and the trace file gets the fused export:
// the span timeline plus the detected incidents as an annotation track,
// onset/clear markers landing inside the windows whose spans show the
// congestion. The recorder observes Figure 4 cells only, so -trace with
// -stats-experiment fig5 is an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/anomaly"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	experiment := flag.String("experiment", "all", "which experiment to run")
	scale := flag.Int("scale", 1, "time-scale divisor for measurement windows")
	seed := flag.Uint64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS, 1 = serial)")
	traceFile := flag.String("trace", "", "write a flight-recorder trace of one Figure 4 cell to this file (Chrome trace_event JSON)")
	traceSpans := flag.Int("trace-spans", 1<<20, "span ring capacity for -trace (oldest spans overwritten beyond this)")
	statsFile := flag.String("stats", "", "write windowed metrics of one cell to this file (format per -stats-format)")
	statsExp := flag.String("stats-experiment", "fig4", "cell to instrument with -stats: fig4 (steady state) or fig5 (fluctuating demand)")
	scenario := flag.Int("scenario", 1, "scenario index of the cell -trace/-stats observe (see fig4/fig5 output order; fig4 default: 9634 UMC/GMI)")
	demandCase := flag.Int("case", 2, "Figure 4 demand case index for -trace/-stats (default: equal over-subscribing demands)")
	statsWindow := flag.Duration("stats-window", 100*time.Microsecond, "harvest window in simulated time (100us = the paper's 100 ms at 1:1000)")
	statsFormat := flag.String("stats-format", "json", "-stats export format: json, openmetrics or csv")
	statsTop := flag.Int("stats-top", 5, "rows in the live per-window bottleneck view (0 disables live output)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (post-GC heap) to this file")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	opt := harness.Options{Seed: *seed, TimeScale: *scale, Workers: *workers}
	if *traceFile != "" || *statsFile != "" {
		err := runObserved(opt, observed{
			experiment: *statsExp, scenario: *scenario, demandCase: *demandCase,
			spanCap: *traceSpans, window: units.Nanos(float64(statsWindow.Nanoseconds())),
			format: *statsFormat, top: *statsTop, tracePath: *traceFile, statsPath: *statsFile,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	run := map[string]func(harness.Options) error{
		"table1":   runTable1,
		"table2":   runTable2,
		"table3":   runTable3,
		"fig3":     runFigure3,
		"fig4":     runFigure4,
		"fig5":     runFigure5,
		"fig6":     runFigure6,
		"ablation": runAblations,
	}
	order := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "ablation"}
	if *experiment == "all" {
		for _, name := range order {
			if err := run[name](opt); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	fn, ok := run[*experiment]
	if !ok {
		log.Printf("unknown experiment %q; choose one of: all %v", *experiment, order)
		os.Exit(2)
	}
	if err := fn(opt); err != nil {
		log.Fatalf("%s: %v", *experiment, err)
	}
}

// observed selects the cell of a -trace/-stats run and where its
// observers' output goes; an empty path leaves that observer off.
type observed struct {
	experiment           string // fig4 or fig5
	scenario, demandCase int
	spanCap              int
	window               units.Time
	format               string
	top                  int
	tracePath, statsPath string
}

// runObserved runs one cell once with the observers o asks for — the
// flight recorder, and the windowed-metrics registry with the anomaly
// detectors — prints their reports and writes their files. With both
// attached, the trace file is the fused export annotated with the
// detected incidents.
func runObserved(opt harness.Options, o observed) error {
	switch o.experiment {
	case "fig4":
	case "fig5":
		if o.tracePath != "" {
			return fmt.Errorf("-trace records Figure 4 cells only, not -stats-experiment fig5")
		}
	default:
		return fmt.Errorf("unknown experiment %q; choose fig4 or fig5", o.experiment)
	}
	var tr *trace.Tracer
	if o.tracePath != "" {
		tr = trace.New(trace.Config{SpanCap: o.spanCap})
	}
	var reg *metrics.Registry
	var mon *anomaly.Monitor
	if o.statsPath != "" {
		switch o.format {
		case "json", "openmetrics", "csv":
		default:
			return fmt.Errorf("unknown format %q; choose json, openmetrics or csv", o.format)
		}
		reg = metrics.New(metrics.Config{Window: o.window})
		mon = anomaly.Attach(reg, anomaly.Config{})
		if o.top > 0 {
			reg.OnHarvest(func() {
				fmt.Println(metrics.RenderWindow(reg, reg.Total()-1, o.top))
			})
		}
	}

	if o.experiment == "fig5" {
		res, err := harness.Figure5StatsRun(opt, o.scenario, reg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderFigure5([]*harness.Fig5Result{res}))
	} else {
		res, _, err := harness.Figure4Cell(opt, o.scenario, o.demandCase, tr, reg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderFigure4([]harness.Fig4Result{res}))
	}
	if reg != nil {
		fmt.Println(metrics.FamilySummary(reg))
		fmt.Println(metrics.BottleneckReport(reg, 3))
		fmt.Println("incidents:")
		fmt.Println(anomaly.Report(mon.Incidents()))
	}
	if tr != nil {
		fmt.Println(tr.BreakdownReport(10))
		fmt.Println("per-hop counter registry:")
		fmt.Println(tr.CounterReport())
	}

	if reg != nil {
		err := writeFile(o.statsPath, func(w io.Writer) error {
			switch o.format {
			case "openmetrics":
				return metrics.WriteOpenMetrics(w, reg)
			case "csv":
				return metrics.WriteCSV(w, reg)
			}
			return reg.Dump().WriteJSON(w)
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d windows x %d instruments to %s (%s)\n",
			reg.Total(), reg.NumInstruments(), o.statsPath, o.format)
	}
	switch {
	case tr == nil:
	case mon == nil:
		if err := writeFile(o.tracePath, tr.WriteTraceEvents); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s — open at https://ui.perfetto.dev or inspect with chiplettrace\n",
			tr.SpanCount(), o.tracePath)
	default:
		err := writeFile(o.tracePath, func(w io.Writer) error {
			return anomaly.WriteFusedTraceEvents(w, tr, mon.Incidents())
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote fused trace: %d spans + %d incident annotations to %s — open at https://ui.perfetto.dev\n",
			tr.SpanCount(), mon.NumIncidents(), o.tracePath)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runTable1(harness.Options) error {
	fmt.Println("Table 1 — hardware specifications (from platform profiles)")
	fmt.Println(harness.RenderTable1(harness.Table1()))
	return nil
}

func runTable2(opt harness.Options) error {
	for _, p := range topology.Profiles() {
		res, err := harness.Table2(p, opt)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	return nil
}

func runTable3(opt harness.Options) error {
	for _, p := range topology.Profiles() {
		fmt.Println(harness.Table3(p, opt).Render())
	}
	return nil
}

func runFigure3(opt harness.Options) error {
	panels, err := harness.Figure3(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure3(panels))
	return nil
}

func runFigure4(opt harness.Options) error {
	rows, err := harness.Figure4(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure4(rows))
	return nil
}

func runFigure5(opt harness.Options) error {
	results, err := harness.Figure5(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure5(results))
	return nil
}

func runFigure6(opt harness.Options) error {
	curves, err := harness.Figure6(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure6(curves))
	return nil
}

func runAblations(opt harness.Options) error {
	a1, err := harness.AblationTrafficManager(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA1(a1))
	for _, p := range topology.Profiles() {
		a2, err := harness.AblationNPS(p, opt)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderA2(a2))
	}
	a3, err := harness.AblationNUMA(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA3(a3))
	a4, err := harness.AblationCXLFlit(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA4(a4))
	a5, err := harness.AblationNoCModel(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA5(a5))
	return nil
}
