package metrics_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

// oracleOpenMetrics is the straightforward fmt-based exposition renderer:
// one Fprintf per sample line. metrics.WriteOpenMetricsFleetWith must
// produce exactly its bytes.
func oracleOpenMetrics(w io.Writer, names []string, cells []metrics.Source, extra func(io.Writer) error) error {
	if len(names) != len(cells) {
		return fmt.Errorf("metrics: %d cell names for %d sources", len(names), len(cells))
	}
	type member struct {
		cell int
		id   metrics.ID
	}
	type group struct {
		metric  string
		kind    metrics.Kind
		unit    string
		members []member
	}
	var groups []*group
	byMetric := map[string]*group{}
	for c, s := range cells {
		for i := 0; i < s.NumInstruments(); i++ {
			d := s.Desc(i)
			g := byMetric[d.Metric]
			if g == nil {
				g = &group{metric: d.Metric, kind: d.Kind, unit: d.Unit}
				byMetric[d.Metric] = g
				groups = append(groups, g)
			}
			g.members = append(g.members, member{cell: c, id: metrics.ID(i)})
		}
	}
	for _, g := range groups {
		name := "chiplet_" + oracleSanitize(g.metric)
		unit := oracleSanitize(g.unit)
		if g.unit == "ps" {
			unit = "picoseconds"
		}
		kind := "gauge"
		suffix := ""
		if g.kind == metrics.KindCounter {
			kind = "counter"
			suffix = "_total"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n# UNIT %s %s\n", name, kind, name, unit); err != nil {
			return err
		}
		for _, m := range g.members {
			s := cells[m.cell]
			d := s.Desc(int(m.id))
			cellLabel := ""
			if names[m.cell] != "" {
				cellLabel = fmt.Sprintf(",cell=%q", names[m.cell])
			}
			cum := 0.0
			for win := s.FirstWindow(); win < s.Total(); win++ {
				v := s.Value(m.id, win)
				if g.kind == metrics.KindCounter {
					cum += v
					v = cum
				}
				_, err := fmt.Fprintf(w, "%s%s{resource=%q,family=%q%s} %g %.9f\n",
					name, suffix, d.Resource, d.Family, cellLabel, v, s.WindowEnd(win).Seconds())
				if err != nil {
					return err
				}
			}
		}
	}
	if extra != nil {
		if err := extra(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "# EOF")
	return err
}

// oracleSanitize maps a name fragment to the OpenMetrics charset, one '_'
// per rejected rune.
func oracleSanitize(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// trafficNet builds the full EPYC 9634 network with every instrument
// registered, harvesting 10 us windows into a ring of capacity cap, and
// runs closed-loop DRAM reads from every CCD for the given number of
// windows — a production-sized registry with live, non-trivial samples.
func trafficNet(cap, windows int) *metrics.Registry {
	eng := sim.New(7)
	p := topology.EPYC9634()
	net := core.New(eng, p)
	reg := metrics.New(metrics.Config{Window: 10 * units.Microsecond, Cap: cap})
	net.AttachMetrics(reg)
	reg.Start(eng)
	for ccd := 0; ccd < p.CCDs; ccd++ {
		a := core.Access{Src: topology.CoreID{CCD: ccd}, Op: txn.Read, Kind: core.DestDRAM, UMC: ccd % 4}
		var done func(*txn.Transaction)
		done = func(*txn.Transaction) { net.Issue(a, nil, done) }
		for i := 0; i < 4; i++ {
			net.Issue(a, nil, done)
		}
	}
	eng.RunFor(units.Time(windows) * 10 * units.Microsecond)
	return reg
}

// dumpOf builds a static series: window k ends at ends[k] (and starts
// where window k-1 ended), instrument i's samples are samples[i].
func dumpOf(first int, ends []int64, descs []metrics.Desc, samples [][]float64) *metrics.Dump {
	d := &metrics.Dump{WindowPS: int64(10 * units.Microsecond), First: first, EndsPS: ends}
	d.StartsPS = make([]int64, len(ends))
	for k := 1; k < len(ends); k++ {
		d.StartsPS[k] = ends[k-1]
	}
	for i, desc := range descs {
		d.Instruments = append(d.Instruments, metrics.InstrumentDump{
			Resource: desc.Resource, Metric: desc.Metric, Family: desc.Family,
			Unit: desc.Unit, Kind: desc.Kind.String(), Samples: samples[i],
		})
	}
	return d
}

type omCase struct {
	name  string
	names []string
	cells []metrics.Source
	extra func(io.Writer) error
}

func omCases(t testing.TB) []omCase {
	prod := trafficNet(16, 24)
	if prod.Total() <= 16 || prod.FirstWindow() == 0 {
		t.Fatalf("production fixture kept windows [%d, %d); want a wrapped 16-window ring", prod.FirstWindow(), prod.Total())
	}
	ends := []int64{10_000_000, 20_000_000, 30_000_000, 40_000_000}
	link := func(res string, k metrics.Kind) metrics.Desc {
		return metrics.Desc{Resource: res, Metric: metrics.MetricBytes, Family: "link", Unit: "bytes", Kind: k}
	}
	shareA := dumpOf(3, ends,
		[]metrics.Desc{link("gmi0", metrics.KindCounter), {Resource: "pool0", Metric: metrics.MetricWait, Family: "pool", Unit: "ps", Kind: metrics.KindCounter}},
		[][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	shareB := dumpOf(0, ends[:2],
		[]metrics.Desc{{Resource: "umc0/rd", Metric: metrics.MetricDepth, Family: "memsys", Unit: "msgs", Kind: metrics.KindGauge}, link("gmi1", metrics.KindCounter)},
		[][]float64{{9, 10}, {11, 12}})
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e21, 1e-5,
		1 << 53, 9.007199254740993e15, 123456789012345678, -1e-7, 0.1, 1e20, 1e-4,
	}
	specialEnds := make([]int64, len(specials))
	for k := range specialEnds {
		specialEnds[k] = int64(k+1) * 1_234_567_891
	}
	specialEnds[len(specialEnds)-1] = math.MaxInt64
	specialDump := dumpOf(0, specialEnds,
		[]metrics.Desc{
			{Resource: "g", Metric: "value", Family: "f", Unit: "x", Kind: metrics.KindGauge},
			{Resource: "c", Metric: "cum", Family: "f", Unit: "x", Kind: metrics.KindCounter},
			{Resource: "big", Metric: "cum", Family: "f", Unit: "x", Kind: metrics.KindCounter},
		},
		[][]float64{specials, specials, {1e300, 1e300, 1e308, 1e308, 1e308, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}})
	hostile := dumpOf(7, []int64{-5, 0, 1},
		[]metrics.Desc{
			{Resource: "a\"b\\c\nd", Metric: "wäit\xffps", Family: "fäm\t\xfe", Unit: "ps", Kind: metrics.KindCounter},
			{Resource: "日本\u0000 ", Metric: "d-e.p:th", Family: "", Unit: "b/s \xc3", Kind: metrics.KindGauge},
			{Resource: "", Metric: "", Family: "\x7f", Unit: "", Kind: metrics.KindGauge},
		},
		[][]float64{{1, 2, 3}, {-1, 0, 1}, {0, 0, 0}})
	empty := dumpOf(0, nil, []metrics.Desc{link("idle", metrics.KindCounter)}, [][]float64{nil})
	service := func(w io.Writer) error {
		_, err := io.WriteString(w, "# TYPE chipletserve_history_dropped counter\nchipletserve_history_dropped_total 0\n")
		return err
	}
	return []omCase{
		{name: "production-9634", names: []string{""}, cells: []metrics.Source{prod}},
		{name: "production-fleet", names: []string{"fig5/s0", "fig5/s1"}, cells: []metrics.Source{prod, prod.Dump()}, extra: service},
		{name: "shared-families", names: []string{"cellA", "cellB"}, cells: []metrics.Source{shareA, shareB}},
		{name: "empty-cell-name", names: []string{"", "named"}, cells: []metrics.Source{shareA, shareB}},
		{name: "special-values", names: []string{"v"}, cells: []metrics.Source{specialDump}},
		{name: "hostile-strings", names: []string{"c\"el\\l\nü\xff", ""}, cells: []metrics.Source{hostile, hostile}, extra: service},
		{name: "no-windows", names: []string{"idle"}, cells: []metrics.Source{empty}},
		{name: "no-cells", extra: service},
		{name: "mismatched", names: []string{"one"}, cells: []metrics.Source{shareA, shareB}},
	}
}

// TestOpenMetricsMatchesOracle is the differential byte-identity check:
// the append-based renderer against the fmt-based oracle.
func TestOpenMetricsMatchesOracle(t *testing.T) {
	for _, tc := range omCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var got, want bytes.Buffer
			gotErr := metrics.WriteOpenMetricsFleetWith(&got, tc.names, tc.cells, tc.extra)
			wantErr := oracleOpenMetrics(&want, tc.names, tc.cells, tc.extra)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("error = %v, oracle %v", gotErr, wantErr)
			}
			assertSameExposition(t, got.Bytes(), want.Bytes())
		})
	}
}

func assertSameExposition(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d = %q, oracle %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines (%d bytes), oracle %d lines (%d bytes)", len(gl), len(got), len(wl), len(want))
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errSinkFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestOpenMetricsWriteError: a failing writer's error surfaces, whether
// it hits a sample chunk, the service lines or the terminator.
func TestOpenMetricsWriteError(t *testing.T) {
	prod := trafficNet(16, 20)
	extra := func(w io.Writer) error {
		_, err := io.WriteString(w, "# TYPE x counter\nx_total 1\n")
		return err
	}
	var full bytes.Buffer
	if err := metrics.WriteOpenMetricsFleetWith(&full, []string{"c"}, []metrics.Source{prod}, extra); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 100, full.Len() / 2, full.Len() - len("# EOF\n") - 5, full.Len() - 1} {
		err := metrics.WriteOpenMetricsFleetWith(&failAfter{n: n}, []string{"c"}, []metrics.Source{prod}, extra)
		if !errors.Is(err, errSinkFull) {
			t.Errorf("failing after %d of %d bytes: error = %v, want %v", n, full.Len(), err, errSinkFull)
		}
	}
}

// FuzzOpenMetricsFleet drives both renderers with arbitrary label
// strings, unit names, kinds, window stamps and sample bit patterns, and
// requires byte-identical output.
func FuzzOpenMetricsFleet(f *testing.F) {
	for _, seed := range []struct {
		cellA, cellB, resource, family, metric, unit string
		counter                                      bool
		end, step                                    int64
		samples                                      []float64
	}{
		{"cellA", "cellB", "gmi0", "link", "bytes", "bytes", true, 10_000_000, 10_000_000, []float64{1, 2, 3, 4}},
		{"", "named", "umc0/rd", "memsys", "depth", "msgs", false, 0, 1, []float64{9, 10}},
		{"v", "", "g", "f", "value", "ps", true, 1_234_567_891, 1_234_567_891,
			[]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e21, 1e-5, 1 << 53}},
		{"c\"el\\l\nü\xff", "", "a\"b\\c\nd", "fäm\t\xfe", "wäit\xffps", "b/s \xc3", false, -5, math.MaxInt64, []float64{1e300, -1e-7}},
		{"x", "y", "", "", "", "", true, math.MaxInt64, 0, nil},
	} {
		raw := make([]byte, 8*len(seed.samples))
		for k, v := range seed.samples {
			binary.LittleEndian.PutUint64(raw[8*k:], math.Float64bits(v))
		}
		f.Add(seed.cellA, seed.cellB, seed.resource, seed.family, seed.metric, seed.unit, seed.counter, seed.end, seed.step, raw)
	}
	f.Fuzz(func(t *testing.T, cellA, cellB, resource, family, metric, unit string, counter bool, end, step int64, raw []byte) {
		n := len(raw) / 8
		if n > 16 {
			n = 16
		}
		samples := make([]float64, n)
		ends := make([]int64, n)
		for k := range samples {
			samples[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
			ends[k] = end + int64(k)*step
		}
		kind := metrics.KindGauge
		if counter {
			kind = metrics.KindCounter
		}
		a := dumpOf(int(step&7), ends,
			[]metrics.Desc{
				{Resource: resource, Metric: metric, Family: family, Unit: unit, Kind: kind},
				{Resource: cellA, Metric: "bytes", Family: family, Unit: "bytes", Kind: metrics.KindCounter},
			},
			[][]float64{samples, samples})
		b := dumpOf(0, ends[:n/2],
			[]metrics.Desc{{Resource: resource + cellB, Metric: metric, Family: family, Unit: unit, Kind: kind}},
			[][]float64{samples[:n/2]})
		names := []string{cellA, cellB}
		cells := []metrics.Source{a, b}
		var got, want bytes.Buffer
		if err := metrics.WriteOpenMetricsFleetWith(&got, names, cells, nil); err != nil {
			t.Fatal(err)
		}
		if err := oracleOpenMetrics(&want, names, cells, nil); err != nil {
			t.Fatal(err)
		}
		assertSameExposition(t, got.Bytes(), want.Bytes())
	})
}

// BenchmarkOpenMetricsFleet renders the production-sized 9634 registry
// with a full 16-window ring — the per-cell share of a fig5 /metrics
// scrape.
func BenchmarkOpenMetricsFleet(b *testing.B) {
	reg := trafficNet(16, 24)
	var buf bytes.Buffer
	if err := metrics.WriteOpenMetricsFleet(&buf, []string{"fig5"}, []metrics.Source{reg}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := metrics.WriteOpenMetricsFleet(io.Discard, []string{"fig5"}, []metrics.Source{reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenMetricsAllocsFlat is the renderer's allocation contract:
// allocations per render depend on the instrument and cell counts, never
// on how many windows are retained — 16 and 64 windows of the same
// network must allocate the same number of times. ci.sh runs it
// explicitly.
func TestOpenMetricsAllocsFlat(t *testing.T) {
	allocs := func(windows int) float64 {
		reg := trafficNet(windows, windows+4)
		if got := reg.Total() - reg.FirstWindow(); got != windows {
			t.Fatalf("fixture retained %d windows, want %d", got, windows)
		}
		src := []metrics.Source{reg, reg.Dump()}
		return testing.AllocsPerRun(5, func() {
			if err := metrics.WriteOpenMetricsFleet(io.Discard, []string{"a", "b"}, src); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a64 := allocs(16), allocs(64)
	t.Logf("allocs per render: %v at 16 windows, %v at 64", a16, a64)
	if a16 != a64 {
		t.Fatalf("allocs per render grow with retained windows: %v at 16, %v at 64", a16, a64)
	}
}
