package main

import (
	"fmt"
	"strconv"
	"testing"
)

// A wrong expected value must fail each check, and the right one pass.
func TestChecksRejectWrongAnswers(t *testing.T) {
	top := Resp{Rows: [][]string{{"1", "7", "0.400000"}, {"2", "3", "0.350000"}, {"3", "9", "0.250000"}}}
	cases := []struct {
		name      string
		check     func(Resp) error
		resp      Resp
		wantError bool
	}{
		{"rows right", wantMsg(rowsMsg("P", 10)), Resp{Message: "P: 10 rows"}, false},
		{"rows wrong", wantMsg(rowsMsg("P", 11)), Resp{Message: "P: 10 rows"}, true},
		{"join prefix right", wantPrefix(rowsMsg("QA", 4) + " ("), Resp{Message: "QA: 4 rows (a, b)"}, false},
		{"join prefix wrong", wantPrefix(rowsMsg("QA", 5) + " ("), Resp{Message: "QA: 4 rows (a, b)"}, true},
		{"graph wrong", wantMsg(graphMsg("G", 3, 4)), Resp{Message: "G: 3 nodes, 5 edges"}, true},
		{"triangles wrong", wantMsg(triMsg(GraphRef{Triangles: 8})), Resp{Message: "7 triangles"}, true},
		{"top right", checkTop(3, 3), top, false},
		{"top too short", checkTop(10, 20), top, true},
		{"full scores sum to 1", checkFullScores(3), top, false},
		{"full scores missing a node", checkFullScores(4), top, true},
		{"show right", checkShow(1, 5, 2), Resp{Rows: [][]string{{"a", "b"}}, Trunc: 4}, false},
		{"show wrong total", checkShow(1, 6, 2), Resp{Rows: [][]string{{"a", "b"}}, Trunc: 4}, true},
	}
	for _, c := range cases {
		if err := c.check(c.resp); (err != nil) != c.wantError {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantError)
		}
	}
	unsorted := Resp{Rows: [][]string{{"1", "7", "0.2"}, {"2", "3", "0.5"}}}
	if checkTop(2, 2)(unsorted) == nil {
		t.Error("checkTop accepted ascending scores")
	}
}

func TestRecorderCountsFailures(t *testing.T) {
	rec := &recorder{}
	ex := fakeExec{msg: "P: 10 rows"}
	rec.call(ex, "s", "load", "load P f", true, wantMsg(rowsMsg("P", 10)))
	rec.call(ex, "s", "load", "load P f", true, wantMsg(rowsMsg("P", 9)))
	rec.call(fakeExec{err: fmt.Errorf("status 400")}, "s", "load", "load P f", true, nil)
	if rec.attempted != 3 || rec.failed != 2 || len(rec.errs) != 2 {
		t.Errorf("attempted %d failed %d errs %v", rec.attempted, rec.failed, rec.errs)
	}
}

type fakeExec struct {
	msg  string
	rows [][]string
	err  error
}

func (f fakeExec) Create(string) error { return nil }
func (f fakeExec) Drop(string) error   { return nil }
func (f fakeExec) Eval(_, _ string) (Resp, error) {
	return Resp{Message: f.msg, Rows: f.rows}, f.err
}

// Two triangles sharing an edge, a pendant node, a self-loop and a
// separate pair: every reference answer is known by hand.
func tinyGraph() (src, dst []int64) {
	edges := [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 2}, {4, 5}, {2, 2}, {8, 9}, {9, 8}}
	for _, e := range edges {
		src, dst = append(src, e[0]), append(dst, e[1])
	}
	return src, dst
}

func TestReferenceAnswers(t *testing.T) {
	src, dst := tinyGraph()
	r := refGraph(newRefGraph(src, dst), true)
	want := GraphRef{Nodes: 7, Edges: 9, WCCCount: 2, WCCLargest: 5, Triangles: 2, CoreNodes: 0, CoreEdges: 0}
	if r != want {
		t.Errorf("refGraph = %+v, want %+v", r, want)
	}
	// K4 plus a self-loop on one node: a 3-core of 4 nodes, 6+1 edges.
	var s, d []int64
	for a := int64(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			s, d = append(s, a), append(d, b)
		}
	}
	s, d = append(s, 0), append(d, 0)
	k := refGraph(newRefGraph(s, d), true)
	if k.CoreNodes != 4 || k.CoreEdges != 7 || k.Triangles != 4 {
		t.Errorf("K4: %+v", k)
	}
}

// dynRef under a mutation stream agrees with a reference rebuilt from
// scratch at every step.
func TestDynRefMatchesRebuild(t *testing.T) {
	d := &Dataset{Seed: 3}
	d.Src, d.Dst = tinyGraph()
	muts := []Mutation{{Add: true, S: 5, D: 1}, {S: 1, D: 2}, {Add: true, S: 5, D: 3}, {S: 2, D: 2},
		{Add: true, S: 10, D: 8}, {S: 9, D: 8}, {Add: true, S: 1, D: 2}}
	dyn := newDynRef(d.Src, d.Dst)
	g := newRefGraph(d.Src, d.Dst)
	for i, m := range muts {
		dyn.apply(m)
		if m.Add {
			g.addEdge(m.S, m.D)
		} else {
			g.delEdge(m.S, m.D)
		}
		want := refGraph(g, false)
		if got := dyn.answers(); got != want {
			t.Fatalf("after mutation %d (%+v): %+v, want %+v", i, m, got, want)
		}
	}
}

func fullListing(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i + 1), strconv.Itoa(i), strconv.FormatFloat(1/float64(n), 'f', 6, 64)}
	}
	return rows
}

// A reader answer that matches no state inside its window is a failure
// found after the run.
func TestUpdateFinalChecksReaderWindows(t *testing.T) {
	d := &Dataset{Seed: 3}
	d.Src, d.Dst = tinyGraph()
	muts := []Mutation{{S: 8, D: 9}, {S: 9, D: 8}} // splits {8, 9} into two components
	states := []GraphRef{refGraph(newRefGraph(d.Src, d.Dst), false)}
	g := newRefGraph(d.Src, d.Dst)
	for _, m := range muts {
		if m.Add {
			g.addEdge(m.S, m.D)
		} else {
			g.delEdge(m.S, m.D)
		}
		states = append(states, refGraph(g, false))
	}
	run := func(reads []readAnswer) *recorder {
		w := &wctx{d: d, muts: muts, rec: &recorder{}, ref: newDynRef(d.Src, d.Dst)}
		for _, m := range muts {
			w.ref.apply(m)
		}
		w.ex = fakeExec{rows: fullListing(w.ref.numNodes())}
		w.tops = [][][]string{{{"1", "2", "0.5"}}, {{"1", "3", "0.5"}}}
		w.reads = reads
		updateFinal(w)
		return w.rec
	}
	good := []readAnswer{
		{kind: "wcc", resp: Resp{Message: wccMsg(states[0])}, lo: 0, hi: 0},
		{kind: "wcc", resp: Resp{Message: wccMsg(states[2])}, lo: 1, hi: 2},
		{kind: "3core", resp: Resp{Message: coreMsg(states[1])}, lo: 0, hi: 1},
		{kind: "top", resp: Resp{Rows: [][]string{{"1", "3", "0.5"}}}, lo: 0, hi: 1},
	}
	if rec := run(good); rec.failed != 0 {
		t.Fatalf("correct answers failed: %v", rec.errs)
	}
	if wccMsg(states[1]) == wccMsg(states[2]) {
		t.Fatal("test stream must change the wcc answer")
	}
	wrongs := []readAnswer{
		{kind: "wcc", resp: Resp{Message: wccMsg(states[0]) + "x"}, lo: 0, hi: 2},
		// Right for a state, but not one current during the request:
		{kind: "top", resp: Resp{Rows: [][]string{{"1", "3", "0.5"}}}, lo: 0, hi: 0},
		{kind: "wcc", resp: Resp{Message: wccMsg(states[2])}, lo: 0, hi: 1},
	}
	if rec := run(wrongs); rec.failed != len(wrongs) {
		t.Errorf("%d wrong answers, %d failures: %v", len(wrongs), rec.failed, rec.errs)
	}
}
