package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(values, n=4).
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 7, 1, 9, 4}, 1.75, 4, 8},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 1: 50, 0.25: 20, 0.9: 46} {
		if got := quantile(s, p); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// tailLadder lists the percentiles a tail metric may be reported at, from
// highest to lowest.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := map[int]float64{
		10000: 99.9, 9999: 99, 1000: 99, 999: 95, 200: 95, 199: 90,
		100: 90, 99: 80, 50: 80, 49: 75, 40: 75, 39: 50, 20: 50, 19: 0, 0: 0,
	}
	for n, want := range cases {
		got := tailPercentile(n)
		if got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
		if got > 0 && beyond(n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = %v leaves %d beyond", n, got, beyond(n, got))
		}
	}
}

// Every workload's fixed tail percentiles leave ten samples beyond them at
// sample counts below what one 20-second run gives on a 2-core host.
func TestWorkloadTailsFitExpectedSamples(t *testing.T) {
	expect := map[string][2]int{ // queries, refreshes per run
		"explore": {360, 44}, "serve_reads": {5000, 1000},
		"update_query": {850, 290}, "reopen": {320, 64},
	}
	for _, wl := range workloads {
		e := expect[wl.name]
		if wl.tailQuery > tailPercentile(e[0]) || wl.tailRefresh > tailPercentile(e[1]) {
			t.Errorf("%s: tails p%v/p%v need more samples than %v", wl.name, wl.tailQuery, wl.tailRefresh, e)
		}
	}
}

func span(id, parent int32, start, end int) Span {
	return Span{ID: id, Parent: parent, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(0, -1, 0, 100), // root
		span(1, 0, 10, 30),  // child
		span(2, 0, 20, 50),  // overlaps child 1: union 10..50
		span(3, 0, 90, 120), // runs past the root: clipped to 90..100
		span(4, 1, 12, 18),  // grandchild
	}
	self := SelfTimes(spans)
	want := map[int32]time.Duration{0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	// Sequential children tile the root: self times sum to its duration.
	seq := []Span{span(0, -1, 0, 100), span(1, 0, 0, 40), span(2, 0, 40, 70)}
	var sum time.Duration
	for _, d := range SelfTimes(seq) {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(1, -1, "op")
	child := tr.Begin(1, root, "layer")
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].Dur() < s[1].Dur() {
		t.Errorf("spans = %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		name  string
		b     []float64
		lower bool
		bound float64
		want  string
	}{
		{"faster everywhere", shift(-10), true, 0.1, Improved},
		{"same", parent, true, 0.1, NoWorse},
		{"slightly slower, within bound", shift(5), true, 0.1, NoWorse},
		{"slower beyond bound", shift(20), true, 0.1, Worse},
		{"higher is better, lower now", shift(-20), false, 0.1, Worse},
		{"higher is better, higher now", shift(20), false, 0.1, Improved},
		{"no bound: parent spread is the band", shift(5), true, 0, Worse},
	}
	for _, c := range cases {
		if got := compareRuns(parent, c.b, c.lower, c.bound).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// A parent spread wider than the bound cannot call a small change.
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := compareRuns(noisy, noisy, true, 0.05).Verdict; got != Unresolved {
		t.Errorf("noisy parent: verdict %q, want %q", got, Unresolved)
	}
	// Ties count for neither side: nine wins of ten pairs still improve.
	b := shift(-10)
	b[3] = parent[3]
	if c := compareRuns(parent, b, true, 0.1); c.Wins != 9 || c.Verdict != Improved {
		t.Errorf("nine wins and a tie: %+v", c)
	}
}

func TestStealMonKeepsCalmTimings(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Samples every 50ms; two ticks are stolen in the window (200ms,
	// 250ms], one stray tick in (500ms, 550ms].
	m := &stealMon{}
	for i := 0; i <= 20; i++ {
		m.at = append(m.at, at(50*i))
		st := 0.0
		if i >= 5 {
			st = 0.02
		}
		if i >= 11 {
			st = 0.03
		}
		m.steal = append(m.steal, st)
	}
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 100, true},    // far from the burst
		{0, 195, false},   // widened by a tick, reaches it
		{0, 185, true},    // a tick short of it
		{210, 240, false}, // inside it
		{260, 400, true},  // clear of it by more than a tick
		{245, 300, false}, // overlaps its end
		{500, 990, true},  // a stray tick is background
	}
	for _, c := range cases {
		if got := m.clean(at(c.a), at(c.b)); got != c.want {
			t.Errorf("clean(%d..%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	ts := []timed{{at(0), at(100), 1}, {at(210), at(240), 9}, {at(270), at(400), 2}}
	if vals, ok := m.calm(ts); !ok || len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("calm = %v %v, want [1 2] true", vals, ok)
	}
	// Mostly disturbed: report everything measured.
	ts = []timed{{at(210), at(240), 9}, {at(150), at(260), 8}, {at(0), at(100), 1}}
	if vals, ok := m.calm(ts); ok || len(vals) != 3 {
		t.Errorf("calm = %v %v, want all three, false", vals, ok)
	}
	// The burst window and the windows a tick away from it are not calm.
	if s := m.calmSeconds(at(0), at(1000)); s < 0.849 || s > 0.851 {
		t.Errorf("calmSeconds = %v, want 0.85", s)
	}
}
