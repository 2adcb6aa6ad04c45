// Command perfbench is the simulator's benchmark. It runs one workload
// for a fixed host time, checks every operation's simulated results, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its output, one JSON object:
//
//	perfbench -workload flagship-if -seed 42 -seconds 20 -trace 0
//
// Workloads, metrics and their units are listed in ../BENCHMARK.json;
// METRICS.md says which layer metric should move which end-to-end
// metric on which workload. perfbench/run.py builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/harness"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // the benchmark's directory (expected/ lives there)
	root     string // the checkout root (reproduce_output.txt lives there)
	spansOut string // where a traced run writes its spans
	record   bool   // write the run's results as the recording
}

// passRec is one pass of a workload: its host cost and the simulated
// work done in its measured windows.
type passRec struct {
	traced     bool
	wall, cpu  float64 // whole pass, seconds
	setup      float64 // CPU seconds before the measured windows
	build      float64 // CPU seconds of construction, part of setup
	rssMB      float64 // peak resident memory during the pass, MiB
	measCPU    float64 // CPU seconds in the measured windows
	simUS      float64 // simulated microseconds measured
	txns       float64 // simulated transactions completed in them
	workers    int     // goroutines the pass ran cells on
	layers     layerCounts
	haveLayers bool // layers were observable from outside
}

// run collects one invocation's measurements.
type run struct {
	cfg    config
	opt    harness.Options // the simulator's inputs
	sp     *spans
	check  *checker // against the recording, or the run's first result
	repeat *checker // against the run's first result only
	gold   golden   // reproduce_output.txt at the default seed, else ""

	passes            []passRec
	setups, builds    []float64
	opCPU, opWall     []float64 // untraced operations' times, ms
	attempted, failed int
	err               error // a fault that stops the run

	// Traced passes' per-window and per-scrape samples.
	harvestUS, sweepUS, mirrorUS   []float64
	scrapeMS, incidentsMS          []float64
	metricsBytes, metricsNSPerByte []float64

	layer struct{ windows, instruments, incidents float64 }
	mem   memDelta

	ref    *refLoop
	refCPU []float64 // reference loop CPU seconds, sampled before each pass
}

// calibrate samples the reference loop.
func (r *run) calibrate() {
	for i := 0; i < refSamples; i++ {
		r.refCPU = append(r.refCPU, r.ref.run())
	}
}

// speed is the factor that turns this run's CPU times into times at the
// nominal host speed: above 1 on a host running faster than nominal.
func (r *run) speed() float64 { return refNominalS / median(r.refCPU) }

func (r *run) opDone(p0 stamp, err error) {
	wall, cpu := p0.since()
	r.opRecord(cpu*1e3, wall*1e3, err)
}

// opRecord counts one operation and, outside traced passes, keeps its
// CPU and wall times in ms.
func (r *run) opRecord(cpuMS, wallMS float64, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 3 {
			fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
		}
	}
	if !r.sp.on {
		r.opCPU = append(r.opCPU, cpuMS)
		r.opWall = append(r.opWall, wallMS)
	}
}

func (r *run) fatal(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *run) addPass(p passRec) {
	p.traced = r.sp.on
	if p.workers == 0 {
		p.workers = 1
	}
	r.passes = append(r.passes, p)
	if p.setup > 0 {
		r.setups = append(r.setups, p.setup)
	}
	if p.build > 0 {
		r.builds = append(r.builds, p.build)
	}
}

// execute runs the workload's set-up, then passes until cfg.seconds of
// host time have gone by. A traced run alternates untraced and traced
// passes, starting untraced, so both halves see the same conditions and
// their CPU ratio is the tracing overhead.
func execute(cfg config, w workload) (*run, error) {
	r := &run{cfg: cfg, opt: inputs(cfg.seed), sp: newSpans(), repeat: &checker{refs: map[string][]byte{}}, ref: newRefLoop()}
	var err error
	if cfg.record {
		r.check = &checker{refs: map[string][]byte{}}
	} else if r.check, err = newChecker(cfg.dir, w.name, cfg.seed); err != nil {
		return nil, err
	}
	if cfg.seed == defaultSeed {
		if r.gold, err = loadGolden(cfg.root); err != nil {
			return nil, err
		}
	}
	r.sp.on = cfg.trace
	r.calibrate()
	if w.setup != nil {
		w.setup(r)
	}
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; r.err == nil; i++ {
		r.sp.on = cfg.trace && i%2 == 1
		// Start every pass from the same heap: the previous pass's garbage
		// neither inflates this pass's peak RSS nor costs it a GC cycle.
		debug.FreeOSMemory()
		r.calibrate()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m0)
		w.pass(r)
		runtime.ReadMemStats(&m1)
		r.mem.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		r.mem.gcs += float64(m1.NumGC - m0.NumGC)
		r.mem.pauseMS += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		if len(r.passes) > 0 {
			if r.passes[len(r.passes)-1].rssMB, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		if time.Since(start).Seconds() >= cfg.seconds && i+1 >= w.minPasses && (!cfg.trace || i >= 1) {
			break
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	n := float64(len(r.passes))
	r.layer.windows /= n
	r.layer.incidents /= n
	r.mem = memDelta{allocMB: r.mem.allocMB / n, gcs: r.mem.gcs / n, pauseMS: r.mem.pauseMS / n}
	if cfg.record {
		if r.failed > 0 {
			return nil, errors.New("not recording: an operation failed")
		}
		if err := r.check.record(cfg.dir, w.name); err != nil {
			return nil, err
		}
	}
	if cfg.trace && cfg.spansOut != "" {
		if err := writeChromeTrace(cfg.spansOut, r.sp.list); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return r, nil
}

// memDelta is the Go runtime's allocation and GC work per pass.
type memDelta struct{ allocMB, gcs, pauseMS float64 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output: the run's verdict and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric, its unit and how a run computes it.
type metricDef struct {
	name, unit string
	value      func(r *run) float64
}

func (r *run) untraced() []passRec { return r.filter(false) }
func (r *run) traced() []passRec   { return r.filter(true) }

func (r *run) filter(traced bool) []passRec {
	var out []passRec
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// each maps a pass field over passes.
func each(ps []passRec, f func(passRec) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func sum(ps []passRec, f func(passRec) float64) float64 {
	var s float64
	for _, p := range ps {
		s += f(p)
	}
	return s
}

// ratio is a/b, 0 when b is 0 (the quantity was not observable).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd lists the end-to-end metrics, all taken from untraced passes.
// CPU times are scaled to the nominal host speed (see refLoop); rates
// per CPU-second are divided by the same factor.
var endToEnd = []metricDef{
	{"cpu_s", "s", func(r *run) float64 {
		return median(each(r.untraced(), func(p passRec) float64 { return p.cpu })) * r.speed()
	}},
	{"setup_s", "s", func(r *run) float64 { return median(r.setups) * r.speed() }},
	{"max_rss_mb", "MB", func(r *run) float64 { return median(each(r.untraced(), func(p passRec) float64 { return p.rssMB })) }},
	{"sim_us_per_cpu_s", "us/s", func(r *run) float64 {
		return median(each(r.untraced(), func(p passRec) float64 { return p.simUS / p.measCPU })) / r.speed()
	}},
	{"txns_per_cpu_s", "1/s", func(r *run) float64 {
		return median(each(r.untraced(), func(p passRec) float64 { return p.txns / p.measCPU })) / r.speed()
	}},
	{"op_cpu_p50_ms", "ms", func(r *run) float64 { return median(r.opCPU) * r.speed() }},
}

// layerSum sums one layer counter over traced passes that observed it.
func layerSum(r *run, f func(layerCounts) float64) float64 {
	return sum(r.traced(), func(p passRec) float64 {
		if !p.haveLayers {
			return 0
		}
		return f(p.layers)
	})
}

// perPass divides a traced-pass total by the number of traced passes.
func perPass(r *run, total float64) float64 { return ratio(total, float64(len(r.traced()))) }

func events(c layerCounts) float64   { return float64(c.events) }
func messages(c layerCounts) float64 { return float64(c.messages) }
func measCPU(p passRec) float64      { return p.measCPU }
func txns(p passRec) float64         { return p.txns }

// observedCPU is the measured CPU of traced passes whose layer counters
// were observable — the denominator partner of layerSum.
func observedCPU(r *run) float64 {
	return sum(r.traced(), func(p passRec) float64 {
		if !p.haveLayers {
			return 0
		}
		return p.measCPU
	})
}

// spanMS reports the mean self time of the spans named name, in ms.
func spanMS(name string) metricDef {
	return metricDef{"span." + name, "ms", func(r *run) float64 {
		n := 0
		for _, sp := range r.sp.list {
			if sp.Name == name {
				n++
			}
		}
		return ratio(float64(selfTimes(r.sp.list)[name])/1e6, float64(n))
	}}
}

// perLayer lists the per-layer metrics, taken from the traced passes of a
// -trace 1 run. A metric whose layer a workload does not reach, or whose
// tail has too few samples, reads 0.
var perLayer = []metricDef{
	{"host.cpu_s", "s", func(r *run) float64 { return median(each(r.traced(), func(p passRec) float64 { return p.cpu })) }},
	{"host.ref_cpu_ms", "ms", func(r *run) float64 { return median(r.refCPU) * 1e3 }},
	{"host.wall_s", "s", func(r *run) float64 { return median(each(r.traced(), func(p passRec) float64 { return p.wall })) }},
	{"host.op_wall_p50_ms", "ms", func(r *run) float64 { return median(r.opWall) }},
	{"setup.build_ms", "ms", func(r *run) float64 { return median(r.builds) * 1e3 }},
	{"setup.warmup_s", "s", func(r *run) float64 { return median(r.setups) - median(r.builds) }},
	{"sim.events", "count", func(r *run) float64 { return perPass(r, layerSum(r, events)) }},
	{"sim.events_fused", "count", func(r *run) float64 {
		return perPass(r, layerSum(r, func(c layerCounts) float64 { return float64(c.fused) }))
	}},
	{"sim.cpu_ns_per_event", "ns", func(r *run) float64 { return ratio(observedCPU(r)*1e9, layerSum(r, events)) }},
	{"link.messages", "count", func(r *run) float64 { return perPass(r, layerSum(r, messages)) }},
	{"link.refused", "count", func(r *run) float64 {
		return perPass(r, layerSum(r, func(c layerCounts) float64 { return float64(c.refused) }))
	}},
	{"link.refused_per_message", "share", func(r *run) float64 {
		return ratio(layerSum(r, func(c layerCounts) float64 { return float64(c.refused) }), layerSum(r, messages))
	}},
	{"link.cpu_ns_per_message", "ns", func(r *run) float64 { return ratio(observedCPU(r)*1e9, layerSum(r, messages)) }},
	{"tokens.grants", "count", func(r *run) float64 {
		return perPass(r, layerSum(r, func(c layerCounts) float64 { return float64(c.grants) }))
	}},
	{"tokens.wait_us", "us", func(r *run) float64 {
		return perPass(r, layerSum(r, func(c layerCounts) float64 { return c.waitPS.Microseconds() }))
	}},
	{"core.txns", "count", func(r *run) float64 { return perPass(r, sum(r.traced(), txns)) }},
	{"core.cpu_ns_per_txn", "ns", func(r *run) float64 { return ratio(sum(r.traced(), measCPU)*1e9, sum(r.traced(), txns)) }},
	{"core.events_per_txn", "count", func(r *run) float64 {
		return ratio(layerSum(r, events), sum(r.traced(), func(p passRec) float64 {
			if !p.haveLayers {
				return 0
			}
			return p.txns
		}))
	}},
	{"metrics.harvest_us_p50", "us", func(r *run) float64 { return median(r.harvestUS) }},
	{"metrics.harvest_us_p90", "us", func(r *run) float64 { return p90(r.harvestUS) }},
	{"metrics.instruments", "count", func(r *run) float64 { return r.layer.instruments }},
	{"metrics.windows", "count", func(r *run) float64 { return r.layer.windows }},
	{"anomaly.sweep_us_p50", "us", func(r *run) float64 { return median(r.sweepUS) }},
	{"anomaly.sweep_us_p90", "us", func(r *run) float64 { return p90(r.sweepUS) }},
	{"anomaly.incidents", "count", func(r *run) float64 { return r.layer.incidents }},
	{"serve.mirror_us_p50", "us", func(r *run) float64 { return median(r.mirrorUS) }},
	{"serve.mirror_us_p90", "us", func(r *run) float64 { return p90(r.mirrorUS) }},
	{"serve.scrape_ms_p50", "ms", func(r *run) float64 { return median(r.scrapeMS) }},
	{"serve.scrape_ms_p90", "ms", func(r *run) float64 { return p90(r.scrapeMS) }},
	{"serve.metrics_bytes", "B", func(r *run) float64 { return median(r.metricsBytes) }},
	{"serve.metrics_ns_per_byte", "ns/B", func(r *run) float64 { return median(r.metricsNSPerByte) }},
	{"serve.incidents_ms_p50", "ms", func(r *run) float64 { return median(r.incidentsMS) }},
	{"harness.pool_busy_share", "share", func(r *run) float64 {
		return median(each(r.traced(), func(p passRec) float64 { return p.cpu / (p.wall * float64(p.workers)) }))
	}},
	{"runtime.alloc_mb", "MB", func(r *run) float64 { return r.mem.allocMB }},
	{"runtime.gc_cycles", "count", func(r *run) float64 { return r.mem.gcs }},
	{"runtime.gc_pause_ms", "ms", func(r *run) float64 { return r.mem.pauseMS }},
	spanMS("build"), spanMS("warmup"), spanMS("measure"), spanMS("harvest"),
	spanMS("sweep"), spanMS("mirror"), spanMS("scrape"), spanMS("verify"),
	{"trace.overhead_share", "share", func(r *run) float64 {
		return median(each(r.traced(), func(p passRec) float64 { return p.cpu }))/
			median(each(r.untraced(), func(p passRec) float64 { return p.cpu })) - 1
	}},
}

// report prints every metric by name with its unit, then the result
// line.
func report(r *run) result {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m := metric{Value: d.value(r), Unit: d.unit}
		res.Metrics[d.name] = m
		fmt.Printf("%-28s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	un, tr := r.untraced(), r.traced()
	fmt.Printf("samples: %d untraced passes, %d traced passes, %d operations timed, %d set-ups\n",
		len(un), len(tr), len(r.opCPU), len(r.setups))
	if p, v, ok := tail(r.opCPU); ok {
		fmt.Printf("op CPU tail: p%g %.6g ms (unscaled) over %d operations\n", p, v, len(r.opCPU))
	}
	fmt.Printf("CPU times scaled by %.4f to nominal host speed (reference loop median %.4g ms, %d samples)\n",
		r.speed(), median(r.refCPU)*1e3, len(r.refCPU))
	return res
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed: the engine seed of every simulated cell")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "host seconds of passes to run after set-up")
	flag.IntVar(&trace, "trace", 0, "1 runs traced passes beside untraced ones and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", "perfbench", "benchmark directory")
	flag.StringVar(&cfg.root, "root", ".", "checkout root holding reproduce_output.txt")
	flag.StringVar(&cfg.spansOut, "spans", "", "file a traced run writes its spans to (Chrome trace format)")
	flag.BoolVar(&cfg.record, "record", false, "record this run's simulated results as the expected ones (default seed only)")
	flag.Parse()
	cfg.trace = trace != 0
	w, ok := findWorkload(cfg.workload)
	if !ok || flag.NArg() > 0 || (cfg.record && cfg.seed != defaultSeed) || cfg.seconds < 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-record]")
		os.Exit(2)
	}
	r, err := execute(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(report(r))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
