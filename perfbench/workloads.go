package main

import (
	"fmt"
	"hash/crc32"
	"net/http"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/link"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

// Workload parameters. They are fixed: the seed is the only input a run
// varies (see inputs).
const (
	chaseTxns    = 100_000 // transactions in one measured chase chain
	chaseWarm    = 10_000  // transactions in the warm-up chain before it
	fig5Window   = 10 * units.Microsecond
	fig5Retain   = 16 // windows a serving mirror keeps
	scrapeEvery  = 5  // windows between scrapes
	gridWorkers  = 2  // fig4-grid cell-pool width
	gridSetups   = 3  // timed set-ups before fig4-grid's passes
	fig5Builds   = 3  // timed network builds before fig5-scrape's passes
	measuredCell = 600 * units.Microsecond
)

// inputs is everything a workload hands the simulator: the default
// classic build at full length. The seed reaches the program only
// through it, as the engine seed of every cell.
func inputs(seed uint64) harness.Options {
	return harness.Options{Seed: seed, TimeScale: 1, Workers: gridWorkers}
}

// flagshipSeeds is how many engine seeds flagship-if cycles through.
// One cell's cost and memory depend on its seed (peak RSS ranged 10.5 to
// 15.7 MB over seeds, each exactly repeatable), so a run measures the
// typical cell over several seeds rather than one seed's cell.
const flagshipSeeds = 8

// cellSeed is the engine seed of a run's i-th flagship cell: the run
// seed itself first, so the default seed's first cell is the committed
// reproduce_output.txt cell, then seeds mixed from it, repeating after
// flagshipSeeds cells.
func cellSeed(seed uint64, i int) uint64 {
	k := uint64(i % flagshipSeeds)
	if k == 0 {
		return seed
	}
	z := seed + k*0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// workload is one benchmark workload: an optional set-up phase run once
// before the clock starts, and a pass repeated until the run's time is
// up and at least minPasses have run.
type workload struct {
	name      string
	setup     func(r *run)
	pass      func(r *run)
	minPasses int
}

var workloads = []workload{
	{name: "flagship-if", pass: flagshipPass, minPasses: flagshipSeeds},
	{name: "unloaded-chase", pass: chasePass},
	{name: "fig5-scrape", setup: fig5Setup, pass: fig5Pass},
	{name: "fig4-grid", setup: gridSetup, pass: gridPass},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// layerCounts sums the link and token-pool counters of a network.
type layerCounts struct {
	events, fused, messages, refused, grants uint64
	waitPS                                   units.Time
}

func countLayers(net *core.Network) layerCounts {
	c := layerCounts{events: net.EventsExecuted(), fused: net.EventsFused()}
	for _, ch := range net.Channels() {
		c.messages += ch.Messages()
		c.refused += ch.Refused()
	}
	for _, p := range net.Pools() {
		c.grants += p.Grants()
		c.waitPS += p.WaitTotal()
	}
	return c
}

func (c layerCounts) minus(o layerCounts) layerCounts {
	return layerCounts{
		events: c.events - o.events, fused: c.fused - o.fused,
		messages: c.messages - o.messages, refused: c.refused - o.refused,
		grants: c.grants - o.grants, waitPS: c.waitPS - o.waitPS,
	}
}

func channelStats(net *core.Network) []link.Stats {
	var out []link.Stats
	for _, ch := range net.Channels() {
		out = append(out, ch.Stats())
	}
	return out
}

// fig4Cell is one Figure 4 cell driven through the layers' public calls
// (core.New, traffic.NewFlow, Runner.RunFor) in the order the harness's
// own cell runner uses, so each phase can be timed from outside.
type fig4Cell struct {
	sc     harness.Fig4Scenario
	c      harness.Fig4Case
	net    *core.Network
	fa, fb *traffic.Flow
}

func buildFig4Cell(opt harness.Options, sc harness.Fig4Scenario, c harness.Fig4Case) (*fig4Cell, error) {
	p := sc.Profile()
	net := core.New(sim.New(opt.Seed), p)
	cfgA, cfgB := sc.FlowA(p), sc.FlowB(p)
	cfgA.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracA)
	cfgB.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracB)
	fa, err := traffic.NewFlow(net, cfgA)
	if err != nil {
		return nil, fmt.Errorf("flow A: %w", err)
	}
	fb, err := traffic.NewFlow(net, cfgB)
	if err != nil {
		return nil, fmt.Errorf("flow B: %w", err)
	}
	fa.Start()
	fb.Start()
	return &fig4Cell{sc: sc, c: c, net: net, fa: fa, fb: fb}, nil
}

// warm runs the convergence warm-up and starts the measured statistics.
func (x *fig4Cell) warm() {
	x.net.Runner().RunFor(x.sc.Converge)
	x.fa.ResetStats()
	x.fb.ResetStats()
}

func (x *fig4Cell) measure() { x.net.Runner().RunFor(measuredCell) }

func (x *fig4Cell) row() harness.Fig4Result {
	return harness.Fig4Result{
		Profile: x.net.Profile().Name, Link: x.sc.Link, Case: x.c.Name,
		DemandA:   units.Bandwidth(float64(x.sc.Capacity) * x.c.FracA),
		DemandB:   units.Bandwidth(float64(x.sc.Capacity) * x.c.FracB),
		AchievedA: x.fa.Achieved(), AchievedB: x.fb.Achieved(),
		Capacity: x.sc.Capacity,
	}
}

// cellResult is what a flagship cell is checked on.
type cellResult struct {
	Row          harness.Fig4Result
	TxnsA, TxnsB uint64
	Channels     []link.Stats
}

// flagshipPass runs one full-length 7302 inter-CC IF cell, case 3 (equal
// over-subscribing demands), on the run's next cell seed: one operation.
func flagshipPass(r *run) {
	sc, c := harness.Figure4Scenarios()[3], harness.Fig4Cases()[2]
	opt := r.opt
	opt.Seed = cellSeed(r.opt.Seed, len(r.passes))
	r.sp.op++
	p0 := now()
	root := r.sp.begin("cell")
	b := r.sp.begin("build")
	cell, err := buildFig4Cell(opt, sc, c)
	r.sp.end(b)
	if err != nil {
		r.sp.end(root)
		r.opDone(p0, fmt.Errorf("build cell: %w", err))
		return
	}
	_, build := p0.since()
	w := r.sp.begin("warmup")
	cell.warm()
	r.sp.end(w)
	_, setup := p0.since()
	before := countLayers(cell.net)
	m0 := now()
	ms := r.sp.begin("measure")
	cell.measure()
	r.sp.end(ms)
	_, measCPU := m0.since()
	lc := countLayers(cell.net).minus(before)

	v := r.sp.begin("verify")
	res := cellResult{Row: cell.row(), TxnsA: cell.fa.Meter().Ops(), TxnsB: cell.fb.Meter().Ops(), Channels: channelStats(cell.net)}
	err = r.check.check(fmt.Sprintf("cell/%d", opt.Seed), res)
	if err == nil && r.gold != "" && opt.Seed == defaultSeed {
		lines := strings.Split(harness.RenderFigure4([]harness.Fig4Result{res.Row}), "\n")
		err = r.gold.hasRow(lines[3])
	}
	r.sp.end(v)
	r.sp.end(root)
	r.opDone(p0, err)
	wall, cpu := p0.since()
	r.addPass(passRec{
		wall: wall, cpu: cpu, setup: setup, build: build, measCPU: measCPU,
		simUS: measuredCell.Microseconds(), txns: float64(res.TxnsA + res.TxnsB),
		layers: lc, haveLayers: true,
	})
}

// chaseShape is one destination shape of the unloaded chase.
type chaseShape struct {
	name    string
	profile func() *topology.Profile
	access  core.Access
}

// chaseShapes lists every destination kind each platform has, read and
// non-temporal write, issued from core 0 to channel/module 0 and (for
// inter-chiplet LLC) chiplet 1.
func chaseShapes() []chaseShape {
	var out []chaseShape
	for _, prof := range []func() *topology.Profile{topology.EPYC9634, topology.EPYC7302} {
		p := prof()
		for _, kind := range []core.DestKind{core.DestDRAM, core.DestCXL, core.DestLLCIntra, core.DestLLCInter} {
			if kind == core.DestCXL && p.CXLModules == 0 {
				continue
			}
			for _, op := range []txn.Op{txn.Read, txn.NTWrite} {
				out = append(out, chaseShape{
					name:    fmt.Sprintf("%s/%v/%v", p.Name, kind, op),
					profile: prof,
					access:  core.Access{Op: op, Kind: kind, DstCCD: 1},
				})
			}
		}
	}
	return out
}

// chaseResult is what one chase chain is checked on.
type chaseResult struct {
	SimPS    units.Time
	Txns     int
	Channels []link.Stats
}

// chasePass runs one dependent chain per shape, each on a fresh network
// after a warm-up chain that fills the transaction and walker pools: one
// operation per chain.
func chasePass(r *run) {
	var rec passRec
	rec.haveLayers = true
	p0 := now()
	for _, sh := range chaseShapes() {
		r.sp.op++
		o0 := now()
		root := r.sp.begin("chain")
		b := r.sp.begin("build")
		net := core.New(sim.New(r.opt.Seed), sh.profile())
		r.sp.end(b)
		_, build := o0.since()
		w := r.sp.begin("warmup")
		net.DriveClosedLoop(sh.access, 1, chaseWarm)
		r.sp.end(w)
		_, setup := o0.since()
		before := countLayers(net)
		t0 := net.Engine().Now()
		m0 := now()
		ms := r.sp.begin("measure")
		net.DriveClosedLoop(sh.access, 1, chaseTxns)
		r.sp.end(ms)
		_, measCPU := m0.since()
		lc := countLayers(net).minus(before)
		res := chaseResult{SimPS: net.Engine().Now() - t0, Txns: chaseTxns, Channels: channelStats(net)}
		v := r.sp.begin("verify")
		err := r.check.check(sh.name, res)
		r.sp.end(v)
		r.sp.end(root)
		r.opDone(o0, err)

		rec.setup += setup
		rec.build += build
		rec.measCPU += measCPU
		rec.simUS += res.SimPS.Microseconds()
		rec.txns += chaseTxns
		rec.layers = rec.layers.plus(lc)
	}
	rec.wall, rec.cpu = p0.since()
	r.addPass(rec)
}

func (c layerCounts) plus(o layerCounts) layerCounts {
	return layerCounts{
		events: c.events + o.events, fused: c.fused + o.fused,
		messages: c.messages + o.messages, refused: c.refused + o.refused,
		grants: c.grants + o.grants, waitPS: c.waitPS + o.waitPS,
	}
}

// fig5Setup times the construction half of the Figure 5 cell set-up
// (network, metrics registration, flows), which Figure5StatsRun does not
// expose separately, by building the same objects outside it.
func fig5Setup(r *run) {
	sc := harness.Figure5Scenarios()[0]
	for i := 0; i < fig5Builds; i++ {
		p0 := now()
		b := r.sp.begin("build")
		p := sc.Fig4.Profile()
		net := core.New(sim.New(r.opt.Seed), p)
		net.AttachMetrics(metrics.New(metrics.Config{Window: fig5Window}))
		demand := units.Bandwidth(float64(sc.Fig4.Capacity) * sc.Demand)
		cfg0, cfg1 := sc.Fig4.FlowA(p), sc.Fig4.FlowB(p)
		cfg0.Demand, cfg1.Demand = demand, demand
		_, err0 := traffic.NewFlow(net, cfg0)
		_, err1 := traffic.NewFlow(net, cfg1)
		r.sp.end(b)
		if err0 != nil || err1 != nil {
			r.fatal(fmt.Errorf("fig5 build: %v %v", err0, err1))
			return
		}
		_, cpu := p0.since()
		r.builds = append(r.builds, cpu)
	}
}

// scrapeSink is an in-memory http.ResponseWriter that keeps only what
// the checks need: status, size, a CRC of the body and its last bytes.
type scrapeSink struct {
	hdr  http.Header
	code int
	n    int
	crc  uint32
	last []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tailBytes is how much of a body's end scrapeSink keeps for the
// terminator check.
const tailBytes = 64

func (s *scrapeSink) reset() {
	s.hdr, s.code, s.n, s.crc, s.last = http.Header{}, 0, 0, 0, s.last[:0]
}

func (s *scrapeSink) Header() http.Header { return s.hdr }
func (s *scrapeSink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *scrapeSink) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	s.n += len(b)
	s.crc = crc32.Update(s.crc, castagnoli, b)
	if len(b) >= tailBytes {
		s.last = append(s.last[:0], b[len(b)-tailBytes:]...)
	} else {
		s.last = append(s.last, b...)
		s.last = append(s.last[:0], s.last[max(0, len(s.last)-tailBytes):]...)
	}
	return len(b), nil
}

// scrape serves one request synchronously and checks the response.
func (s *scrapeSink) scrape(h http.Handler, path, suffix string) error {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("build request %s: %w", path, err)
	}
	s.reset()
	h.ServeHTTP(s, req)
	if s.code != http.StatusOK || s.n == 0 || !strings.HasSuffix(string(s.last), suffix) {
		return fmt.Errorf("scrape %s: status %d, %d bytes, ends %q", path, s.code, s.n, s.last)
	}
	return nil
}

// incidentResult is the part of an incident the check pins.
type incidentResult struct {
	Resource, Metric         string
	OnsetWindow, ClearWindow int
}

// fig5Result is what one Figure 5 pass is checked on.
type fig5Result struct {
	Panel     *harness.Fig5Result
	Windows   int
	Incidents []incidentResult
}

// fig5Pass runs the Figure 5 9634 IF panel with a 10 us harvest window,
// an anomaly monitor, a retention-bounded serving mirror and a
// synchronous scrape of /metrics and /incidents every scrapeEvery
// windows. Each scrape is one operation.
func fig5Pass(r *run) {
	r.sp.op++
	traced := r.sp.on
	var p0 stamp
	reg := metrics.New(metrics.Config{Window: fig5Window})
	var (
		probeAt, hookAt time.Time
		setupEnd        stamp
		measure         = -1
		probes          int
		scrapeErrs      []error
		crcs            []uint32
		scrapeCPU       []float64 // ms
		scrapeWall      []float64 // ms
	)
	// The probe is the first instrument, so each harvest calls it first;
	// its first call is reg.Start, the end of the warm-up.
	reg.Gauge("perfbench", "probe", "perfbench", "count", func() float64 {
		probeAt = time.Now()
		if probes == 0 {
			setupEnd = now()
			r.sp.add("warmup", p0.wall, setupEnd.wall)
			measure = r.sp.begin("measure")
		}
		probes++
		return 0
	})
	reg.OnHarvest(func() {
		hookAt = time.Now()
		if traced {
			r.harvestUS = append(r.harvestUS, hookAt.Sub(probeAt).Seconds()*1e6)
			r.sp.add("harvest", probeAt, hookAt)
		}
	})
	mon := anomaly.Attach(reg, anomaly.Config{})
	reg.OnHarvest(func() {
		t := time.Now()
		if traced {
			r.sweepUS = append(r.sweepUS, t.Sub(hookAt).Seconds()*1e6)
			r.sp.add("sweep", hookAt, t)
		}
		hookAt = t
	})
	fleet := serve.NewFleet()
	fleet.Add("fig5-9634-if", fig5Retain).Observe(reg, mon)
	handler := fleet.Handler()
	var sink scrapeSink
	reg.OnHarvest(func() {
		t := time.Now()
		if traced {
			r.mirrorUS = append(r.mirrorUS, t.Sub(hookAt).Seconds()*1e6)
			r.sp.add("mirror", hookAt, t)
		}
		if reg.Total()%scrapeEvery != 0 {
			return
		}
		s0 := now()
		err := sink.scrape(handler, "/metrics", "# EOF\n")
		s1 := now()
		metricsBytes, metricsCRC := sink.n, sink.crc
		if err == nil {
			err = sink.scrape(handler, "/incidents", "\n")
		}
		s2 := now()
		scrapeErrs = append(scrapeErrs, err)
		crcs = append(crcs, metricsCRC, sink.crc)
		scrapeCPU = append(scrapeCPU, (s2.cpu-s0.cpu)*1e3)
		scrapeWall = append(scrapeWall, s2.wall.Sub(s0.wall).Seconds()*1e3)
		if traced {
			r.sp.add("scrape", s0.wall, s2.wall)
			r.metricsBytes = append(r.metricsBytes, float64(metricsBytes))
			r.metricsNSPerByte = append(r.metricsNSPerByte, (s1.cpu-s0.cpu)*1e9/float64(metricsBytes))
			r.incidentsMS = append(r.incidentsMS, (s2.cpu-s1.cpu)*1e3)
		}
	})

	p0 = now()
	root := r.sp.begin("pass")
	panel, err := harness.Figure5StatsRun(r.opt, 0, reg)
	r.sp.end(measure)
	wall, cpu := p0.since()
	if probes == 0 && err == nil {
		err = fmt.Errorf("fig5: registry never started")
	}
	v := r.sp.begin("verify")
	if err == nil {
		res := fig5Result{Panel: panel, Windows: reg.Total()}
		for _, in := range mon.Incidents() {
			res.Incidents = append(res.Incidents, incidentResult{in.Resource, in.Metric, in.OnsetWindow, in.ClearWindow})
		}
		err = r.check.check("panel", res)
		if err == nil {
			err = r.repeat.check("scrapes", crcs)
		}
		if err == nil && r.gold != "" {
			err = r.gold.hasBlock(harness.RenderFigure5([]*harness.Fig5Result{panel}))
		}
		r.layer.windows += float64(reg.Total())
		r.layer.instruments = float64(reg.NumInstruments())
		r.layer.incidents += float64(mon.NumIncidents())
	}
	r.sp.end(v)
	r.sp.end(root)
	if len(scrapeErrs) == 0 {
		scrapeErrs = append(scrapeErrs, fmt.Errorf("fig5: no scrape ran"))
		scrapeCPU = append(scrapeCPU, cpu*1e3)
		scrapeWall = append(scrapeWall, wall*1e3)
	}
	for i, e := range scrapeErrs {
		if e == nil {
			e = err // a pass whose results are wrong fails every scrape in it
		}
		r.opRecord(scrapeCPU[i], scrapeWall[i], e)
	}
	if traced {
		r.scrapeMS = append(r.scrapeMS, scrapeCPU...)
	}
	var bytes float64
	if panel != nil {
		for _, pts := range [][]telemetry.Point{panel.Flow0, panel.Flow1} {
			for _, p := range pts {
				bytes += float64(p.Rate) * panel.Interval.Seconds()
			}
		}
	}
	r.addPass(passRec{
		wall: wall, cpu: cpu, setup: setupEnd.cpu - p0.cpu,
		measCPU: cpu - (setupEnd.cpu - p0.cpu),
		simUS:   (6 * units.Millisecond).Microseconds(), txns: bytes / float64(units.CacheLine),
	})
}

// gridSetup times gridSetups set-ups of the grid's 9634 IF case-3 cell —
// the network build and convergence warm-up each of the grid's cells
// pays inside harness.Figure4, which does not expose them.
func gridSetup(r *run) {
	sc, c := harness.Figure4Scenarios()[0], harness.Fig4Cases()[2]
	for i := 0; i < gridSetups; i++ {
		p0 := now()
		root := r.sp.begin("setup")
		b := r.sp.begin("build")
		cell, err := buildFig4Cell(r.opt, sc, c)
		r.sp.end(b)
		if err != nil {
			r.sp.end(root)
			r.fatal(fmt.Errorf("grid set-up: %w", err))
			return
		}
		_, build := p0.since()
		w := r.sp.begin("warmup")
		cell.warm()
		r.sp.end(w)
		r.sp.end(root)
		_, setup := p0.since()
		r.setups = append(r.setups, setup)
		r.builds = append(r.builds, build)
	}
}

// gridPass runs harness.Figure4 — all 20 paper cells on a two-worker
// cell pool — as one operation.
func gridPass(r *run) {
	r.sp.op++
	p0 := now()
	root := r.sp.begin("grid")
	m := r.sp.begin("measure")
	rows, err := harness.Figure4(r.opt)
	r.sp.end(m)
	wall, cpu := p0.since()
	v := r.sp.begin("verify")
	if err == nil {
		for _, row := range rows {
			if err = r.check.check(row.Profile+"/"+row.Link+"/"+row.Case, row); err != nil {
				break
			}
		}
	}
	if err == nil && r.gold != "" {
		err = r.gold.hasBlock(harness.RenderFigure4(rows))
	}
	r.sp.end(v)
	r.sp.end(root)
	r.opDone(p0, err)
	var txns float64
	for _, row := range rows {
		txns += float64(row.AchievedA+row.AchievedB) * measuredCell.Seconds() / float64(units.CacheLine)
	}
	r.addPass(passRec{
		wall: wall, cpu: cpu, measCPU: cpu, workers: gridWorkers,
		simUS: float64(len(rows)) * measuredCell.Microseconds(), txns: txns,
	})
}
