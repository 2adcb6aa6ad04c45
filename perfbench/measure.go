package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds reports the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the
// current RSS, so peakRSSMB then reports the peak since this call.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reports VmHWM, the process's peak resident set size, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stamp is one wall+CPU reading.
type stamp struct {
	wall time.Time
	cpu  float64
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuSeconds()} }

// since reports the wall and CPU seconds elapsed from s.
func (s stamp) since() (wall, cpu float64) {
	n := now()
	return n.wall.Sub(s.wall).Seconds(), n.cpu - s.cpu
}

// median reports the middle value of xs (mean of the two middle values
// for an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile reports the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// tailLadder lists the tail percentiles considered, highest first.
var tailLadder = []float64{99.9, 99, 90}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail applies the percentile rule: the highest percentile on the ladder
// with at least minBeyond samples beyond it. ok is false when even p90
// lacks them (fewer than 100 samples); then no tail is reported.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if len(xs)-rank(len(xs), p) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// p90 reports the 90th percentile when the percentile rule supports it
// (at least 100 samples), else 0 — the value a *_p90 metric carries when
// its workload produced too few samples for a tail.
func p90(xs []float64) float64 {
	if len(xs)-rank(len(xs), 90) < minBeyond {
		return 0
	}
	return percentile(xs, 90)
}

// span is one benchmark-side timing interval around a call into a layer.
// Times are nanoseconds from the recorder's origin; Parent is the index
// of the enclosing span (-1 for a root) and Op the operation it belongs
// to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// spans records the traced run's spans in memory. A nil or disabled
// recorder records nothing and costs one branch per call, so the same
// workload code serves traced and untraced passes.
type spans struct {
	on    bool
	t0    time.Time
	list  []span
	stack []int
	op    int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) nanos(t time.Time) int64 { return t.Sub(s.t0).Nanoseconds() }

// begin opens a span nested in the innermost open one; end closes it.
func (s *spans) begin(name string) int {
	if s == nil || !s.on {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.list = append(s.list, span{Name: name, Start: s.nanos(time.Now()), Parent: parent, Op: s.op})
	i := len(s.list) - 1
	s.stack = append(s.stack, i)
	return i
}

func (s *spans) end(i int) {
	if i < 0 {
		return
	}
	s.list[i].End = s.nanos(time.Now())
	s.stack = s.stack[:len(s.stack)-1]
}

// add records an already-timed child of the innermost open span — for
// intervals bounded by hooks inside a layer rather than by a call.
func (s *spans) add(name string, from, to time.Time) {
	if s == nil || !s.on {
		return
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.list = append(s.list, span{Name: name, Start: s.nanos(from), End: s.nanos(to), Parent: parent, Op: s.op})
}

// selfTimes reports, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of it covered by its
// direct children (overlapping children are counted once).
func selfTimes(list []span) map[string]int64 {
	kids := make([][]int, len(list))
	for i, sp := range list {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	out := map[string]int64{}
	for i, sp := range list {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(list[k].Start, sp.Start), min(list[k].End, sp.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, reach int64
		reach = math.MinInt64
		for _, iv := range ivs {
			a := max(iv[0], reach)
			if iv[1] > a {
				covered += iv[1] - a
			}
			reach = max(reach, iv[1])
		}
		out[sp.Name] += sp.End - sp.Start - covered
	}
	return out
}

// writeChromeTrace writes the spans as a Chrome trace_event file
// (loadable in Perfetto), parent and operation carried as args.
func writeChromeTrace(path string, list []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(list))
	for i, sp := range list {
		evs[i] = event{
			Name: sp.Name, Ph: "X", TS: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			PID: 1, TID: 1, Args: map[string]int{"id": i, "parent": sp.Parent, "op": sp.Op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// The reference loop calibrates host speed. A shared host's speed drifts
// over minutes: the same simulator pass took 11% more or less CPU time
// from one 20-second window to the next. The reference is a small
// discrete-event loop (a binary heap of pending events updating an
// L2-resident table), which slows and speeds up with the host the way
// the simulator does. Measured here, simulator CPU over reference CPU
// stayed within 4% across the same windows. It is the benchmark's own
// code, so no change to the program moves it.
const (
	refSteps   = 200_000
	refEvents  = 4096
	refTable   = 1 << 15
	refSamples = 2 // reference runs before each pass
	// refNominalS is the reference loop's CPU time at the nominal host
	// speed that normalized times are expressed in: about its median
	// on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
	refNominalS = 0.032
)

type refEvent struct {
	t  uint64
	id uint32
}

// refLoop holds the reference's buffers, allocated once so that a
// calibration run allocates nothing.
type refLoop struct {
	heap  []refEvent
	table []uint64
	sink  uint64
}

func newRefLoop() *refLoop {
	return &refLoop{heap: make([]refEvent, 0, refEvents), table: make([]uint64, refTable)}
}

func (l *refLoop) push(e refEvent) {
	h := append(l.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	l.heap = h
}

func (l *refLoop) pop() refEvent {
	h := l.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].t < h[c].t {
			c = r
		}
		if h[i].t <= h[c].t {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	l.heap = h
	return top
}

// run executes the reference loop once and reports its CPU seconds.
func (l *refLoop) run() float64 {
	c := cpuSeconds()
	l.heap = l.heap[:0]
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := 0; i < refEvents; i++ {
		l.push(refEvent{t: next() % 1000, id: uint32(i)})
	}
	for s := 0; s < refSteps; s++ {
		e := l.pop()
		r := next()
		k := (uint64(e.id)*2654435761 ^ r) & (refTable - 1)
		l.table[k] += e.t
		l.sink += l.table[k] >> 3
		l.push(refEvent{t: e.t + 1 + r%500, id: e.id})
	}
	return cpuSeconds() - c
}
