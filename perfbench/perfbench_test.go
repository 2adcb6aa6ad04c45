package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/harness"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		p, v    float64
		hasTail bool
	}{
		{n: 1}, {n: 10}, {n: 99},
		{n: 100, p: 90, v: 90, hasTail: true},
		{n: 999, p: 90, v: 900, hasTail: true},
		{n: 1000, p: 99, v: 990, hasTail: true},
		{n: 10000, p: 99.9, v: 9990, hasTail: true},
	} {
		p, v, ok := tail(seq(tc.n))
		if ok != tc.hasTail || p != tc.p || v != tc.v {
			t.Errorf("tail(%d samples) = p%g %g %v, want p%g %g %v", tc.n, p, v, ok, tc.p, tc.v, tc.hasTail)
		}
		wantP90 := 0.0
		if tc.hasTail {
			wantP90 = percentile(seq(tc.n), 90)
		}
		if got := p90(seq(tc.n)); got != wantP90 {
			t.Errorf("p90(%d samples) = %g, want %g", tc.n, got, wantP90)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	list := []span{
		{Name: "measure", Start: 0, End: 100, Parent: -1},
		{Name: "harvest", Start: 10, End: 30, Parent: 0},
		{Name: "sweep", Start: 20, End: 50, Parent: 0},   // overlaps harvest: covered once
		{Name: "scrape", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "mirror", Start: 12, End: 15, Parent: 1},  // grandchild: only harvest loses it
		{Name: "verify", Start: 200, End: 260, Parent: -1},
		{Name: "harvest", Start: 300, End: 305, Parent: -1}, // same name: self times add
	}
	want := map[string]int64{
		"measure": 100 - 40 - 10,
		"harvest": 20 - 3 + 5,
		"sweep":   30,
		"scrape":  30,
		"mirror":  3,
		"verify":  60,
	}
	if got := selfTimes(list); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpansRecordNesting(t *testing.T) {
	var off *spans
	if i := off.begin("build"); i != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", i)
	}
	s := newSpans()
	if s.begin("build") != -1 || len(s.list) != 0 {
		t.Fatal("disabled recorder recorded a span")
	}
	s.on = true
	s.op = 7
	root := s.begin("cell")
	child := s.begin("warmup")
	s.end(child)
	s.end(root)
	if len(s.list) != 2 || s.list[1].Parent != root || s.list[0].Parent != -1 || s.list[1].Op != 7 {
		t.Fatalf("spans = %+v", s.list)
	}
	if s.list[0].End < s.list[1].End || s.list[1].Start < s.list[0].Start {
		t.Fatalf("child not inside parent: %+v", s.list)
	}
}

func TestPerturbedResultFailsOperation(t *testing.T) {
	row := harness.Fig4Result{Profile: "EPYC 7302", Link: "IF", Case: "case3 equal demands", AchievedA: 13953000000}
	r := &run{sp: newSpans(), check: &checker{refs: map[string][]byte{}}}
	r.opRecord(1, 1, r.check.check("cell", row))
	r.opRecord(1, 1, r.check.check("cell", row))
	bad := row
	bad.AchievedA++
	r.opRecord(1, 1, r.check.check("cell", bad))
	if r.attempted != 3 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", r.attempted, r.failed)
	}
	if res := report(r); res.Correct || res.Failed != 1 {
		t.Fatalf("report = %+v, want incorrect with one failure", res)
	}

	// A recording fixes the reference: a result differing from it, or a
	// key it lacks, fails even on first sight.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "expected"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := &checker{refs: map[string][]byte{}}
	if err := rec.check("cell", row); err != nil {
		t.Fatal(err)
	}
	if err := rec.record(dir, "w"); err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(dir, "w", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check("cell", row); err != nil {
		t.Errorf("recorded result rejected: %v", err)
	}
	if err := c.check("cell", bad); err == nil {
		t.Error("perturbed result accepted against the recording")
	}
	if err := c.check("other", row); err == nil {
		t.Error("unrecorded key accepted at the default seed")
	}

	g := golden("Profile    Link  Case\nEPYC 7302  IF    case3 equal demands     21.6/21.6  14.0/10.7  12.0\n")
	if err := g.hasRow("EPYC 7302 IF case3 equal demands 21.6/21.6 14.0/10.7 12.0"); err != nil {
		t.Errorf("re-padded row rejected: %v", err)
	}
	if err := g.hasRow("EPYC 7302 IF case3 equal demands 21.6/21.6 14.1/10.7 12.0"); err == nil {
		t.Error("perturbed row accepted")
	}
}

func TestSeedReachesOnlyInputs(t *testing.T) {
	a, b := inputs(1), inputs(2)
	if a.Seed != 1 || b.Seed != 2 {
		t.Fatalf("seeds not passed through: %d %d", a.Seed, b.Seed)
	}
	b.Seed = a.Seed
	if !reflect.DeepEqual(a, b) {
		t.Errorf("inputs differ beyond the seed: %+v vs %+v", a, b)
	}
	if a.Domains != 0 || a.NoFusion || a.DisableRecycle || a.TimeScale != 1 {
		t.Errorf("inputs are not the default classic build: %+v", a)
	}
	// Flagship cells cycle through seeds drawn from the run seed alone.
	seen := map[uint64]bool{}
	for i := 0; i < flagshipSeeds; i++ {
		s := cellSeed(defaultSeed, i)
		if seen[s] || s != cellSeed(defaultSeed, i+flagshipSeeds) || s == cellSeed(defaultSeed+1, i) {
			t.Fatalf("cell seed %d = %d: repeated early, not cyclic, or not drawn from the run seed", i, s)
		}
		seen[s] = true
	}
	if cellSeed(defaultSeed, 0) != defaultSeed {
		t.Error("the default run seed's first cell is not the committed reproduce_output.txt cell")
	}
	// Only the default seed is checked against the recording.
	c, err := newChecker(t.TempDir(), "missing", 7)
	if err != nil || c.recorded {
		t.Errorf("non-default seed used a recording: %v %v", c, err)
	}
	if _, err := newChecker(t.TempDir(), "missing", defaultSeed); err == nil {
		t.Error("default seed ran without a recording")
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestSpecMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, names []struct{ Name, Unit string }) {
		if len(defs) != len(names) {
			t.Errorf("%s: program reports %d metrics, spec lists %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i].Name || d.unit != names[i].Unit {
				t.Errorf("%s %d: program %s %s, spec %s %s", kind, i, d.name, d.unit, names[i].Name, names[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}
