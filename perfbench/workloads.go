package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix. setup builds and warms the resident state
// (timed as part of setup_s); run drives closed-loop clients until the
// deadline; final checks what can only be checked once the run is over.
type workload struct {
	name      string
	clients   int
	posts     bool // needs the posts table
	triangles bool // needs the reference triangle count
	// tailQuery and tailRefresh are the fixed percentiles query_tail_ms
	// and refresh_tail_ms report, each the highest that leaves at least
	// ten samples beyond it at this workload's expected sample counts.
	tailQuery, tailRefresh float64
	setup                  func(w *wctx) error
	run                    func(w *wctx, deadline time.Time)
	final                  func(w *wctx)
}

// workloads are the benchmark's traffic mixes; README.md gives why each
// was chosen. explore stresses table ops, conversion and cold kernels;
// serve_reads the server, repl and caches; update_query the delta log,
// view patching and the session lock; reopen snapshot restore and mapped
// graphs.
var workloads = []*workload{
	{
		name:      "explore",
		clients:   1,
		posts:     true,
		triangles: true,
		tailQuery: 95, tailRefresh: 75,
		setup: func(w *wctx) error { exploreIter(w, 0, false); return nil },
		run: func(w *wctx, deadline time.Time) {
			for i := 1; time.Now().Before(deadline); i++ {
				t := time.Now()
				w.rec.iter(t, exploreIter(w, i, i == 1))
			}
		},
	},
	{
		name:      "serve_reads",
		clients:   2,
		posts:     true,
		triangles: true,
		tailQuery: 99, tailRefresh: 95,
		setup: serveSetup,
		run:   serveRun,
		final: serveFinal,
	},
	{
		name:      "update_query",
		clients:   2,
		tailQuery: 95, tailRefresh: 95,
		setup: updateSetup,
		run:   updateRun,
		final: updateFinal,
	},
	{
		name:      "reopen",
		clients:   1,
		posts:     true,
		tailQuery: 95, tailRefresh: 80,
		setup: reopenSetup,
		run: func(w *wctx, deadline time.Time) {
			for i := 1; time.Now().Before(deadline); i++ {
				t := time.Now()
				w.rec.iter(t, reopenIter(w, i, i == 1))
			}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wctx is the state one workload run shares between setup, run and final.
type wctx struct {
	ex   Executor
	d    *Dataset
	rec  *recorder
	work string // scratch directory for files the server writes
	// beforeDrop, when set, runs before a per-iteration session is
	// dropped (trace runs read /stats there: the server's cache counters
	// cover live sessions only).
	beforeDrop func()

	top  Resp // the resident scores' top 10, recorded at setup
	snap string
	rngm string

	// update_query state
	muts    []Mutation
	ref     *dynRef
	tops    [][][]string // tops[i]: writer's top 10 after its i-th pagerank
	topsMu  sync.Mutex
	mutSent atomic.Int64
	mutDone atomic.Int64
	prSent  atomic.Int64
	prDone  atomic.Int64
	readsMu sync.Mutex
	reads   []readAnswer
}

// call runs one checked command of op in sess.
func (w *wctx) call(sess, key, cmd string, query bool, check func(Resp) error) Resp {
	return w.rec.call(w.ex, sess, key, cmd, query, check)
}

// session creates sess, counting the attempt.
func (w *wctx) session(sess string) (time.Duration, bool) {
	t := time.Now()
	err := w.ex.Create(sess)
	w.rec.note("create session "+sess, err)
	return time.Since(t), err == nil
}

// drop drops sess, counting the attempt.
func (w *wctx) drop(sess string) time.Duration {
	if w.beforeDrop != nil {
		w.beforeDrop()
	}
	t := time.Now()
	err := w.ex.Drop(sess)
	w.rec.note("drop session "+sess, err)
	return time.Since(t)
}

// exploreIter runs one cold iteration of the paper's posts and graph
// pipelines in a fresh session and returns its wall time. full adds the
// untimed whole-score-vector checks.
func exploreIter(w *wctx, i int, full bool) time.Duration {
	d, ref := w.d, w.d.Ref
	sess := fmt.Sprintf("x%d", i)
	busy, ok := w.session(sess)
	if !ok {
		return busy
	}
	t0 := time.Now()
	c := func(key, cmd string, check func(Resp) error) {
		w.call(sess, key, cmd, true, check)
	}
	c("load", "load P "+d.PostsPath+" "+postsSchema, wantMsg(rowsMsg("P", d.PostsRows)))
	c("select", "select J P Tag == "+exploreTag, wantMsg(rowsMsg("J", d.TagRows[exploreTag])))
	c("select", "select Q J Type == question", wantMsg(rowsMsg("Q", d.JavaQ)))
	c("select", "select A J Type == answer", wantMsg(rowsMsg("A", d.JavaA)))
	c("join", "join QA Q A AcceptedId PostId", wantPrefix(rowsMsg("QA", d.JavaQA)+" ("))
	c("tograph", "tograph U QA UserId-1 UserId-2", wantMsg(graphMsg("U", d.ExpNodes, d.ExpEdges)))
	c("pagerank", "pagerank UR U", wantMsg(scoredMsg("UR", d.ExpNodes)))
	w.rec.fresh(t0)
	c("scores2table", "scores2table UT UR User Scr", wantMsg(rowsMsg("UT", d.ExpNodes)))
	c("top", "top UR 10", checkTop(10, d.ExpNodes))
	t1 := time.Now()
	c("load", "load E "+d.EdgesPath+" src:int dst:int", wantMsg(rowsMsg("E", d.EdgeRows)))
	c("tograph", "tograph G E src dst", wantMsg(graphMsg("G", ref.Nodes, ref.Edges)))
	c("pagerank", "pagerank GR G", wantMsg(scoredMsg("GR", ref.Nodes)))
	w.rec.fresh(t1)
	c("algo", "algo G wcc", wantMsg(wccMsg(ref)))
	c("algo", "algo G triangles", wantMsg(triMsg(ref)))
	c("algo", "algo G 3core", wantMsg(coreMsg(ref)))
	c("top", "top GR 10", checkTop(10, ref.Nodes))
	busy += time.Since(t0)
	if full {
		w.call(sess, "check", fmt.Sprintf("top UR %d", d.ExpNodes), false, checkFullScores(d.ExpNodes))
		w.call(sess, "check", fmt.Sprintf("top GR %d", ref.Nodes), false, checkFullScores(ref.Nodes))
	}
	return busy + w.drop(sess)
}

// serveSetup builds the resident session serve_reads queries: the posts
// table, the R-MAT graph and its scores, with every cache warmed.
func serveSetup(w *wctx) error {
	d, ref := w.d, w.d.Ref
	if _, ok := w.session("main"); !ok {
		return fmt.Errorf("create session main")
	}
	c := func(key, cmd string, check func(Resp) error) Resp {
		r := w.call("main", key, cmd, false, check)
		return r
	}
	c("load", "load P "+d.PostsPath+" "+postsSchema, wantMsg(rowsMsg("P", d.PostsRows)))
	c("load", "load E "+d.EdgesPath+" src:int dst:int", wantMsg(rowsMsg("E", d.EdgeRows)))
	c("tograph", "tograph G E src dst", wantMsg(graphMsg("G", ref.Nodes, ref.Edges)))
	c("pagerank", "pagerank GR G", wantMsg(scoredMsg("GR", ref.Nodes)))
	w.top = c("top", "top GR 10", checkTop(10, ref.Nodes))
	for r := 0; r < 3; r++ {
		for cl := 0; cl < 2; cl++ {
			serveRound(w, cl, r)
		}
	}
	return nil
}

// serveRound is one client's pass over the read mix.
func serveRound(w *wctx, client, round int) time.Duration {
	d, ref := w.d, w.d.Ref
	c := func(key, cmd string, check func(Resp) error) {
		w.call("main", key, cmd, true, check)
	}
	t0 := time.Now()
	c("top", "top GR 10", func(r Resp) error {
		if !sameRows(r.Rows, w.top.Rows) {
			return fmt.Errorf("top GR 10 changed: %v, want %v", r.Rows, w.top.Rows)
		}
		return nil
	})
	c("show", "show P 5", checkShow(5, d.PostsRows, 7))
	switch (round + client) % 3 {
	case 0:
		c("algo_hit", "algo G wcc", wantMsg(wccMsg(ref)))
	case 1:
		c("algo_hit", "algo G 3core", wantMsg(coreMsg(ref)))
	default:
		c("algo_hit", "algo G triangles", wantMsg(triMsg(ref)))
	}
	name := fmt.Sprintf("PR%d", client)
	tp := time.Now()
	c("pagerank_hit", "pagerank "+name+" G", wantMsg(scoredMsg(name, ref.Nodes)))
	w.rec.fresh(tp)
	tag := selectTags[(2*round+client)%len(selectTags)]
	out := fmt.Sprintf("S%d", client)
	c("select", fmt.Sprintf("select %s P Tag == %s", out, tag), wantMsg(rowsMsg(out, d.TagRows[tag])))
	return time.Since(t0)
}

func serveRun(w *wctx, deadline time.Time) {
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for r := 0; time.Now().Before(deadline); r++ {
				t := time.Now()
				w.rec.iter(t, serveRound(w, cl, r))
			}
		}(cl)
	}
	wg.Wait()
}

// serveFinal checks the resident scores as a whole once the run is over.
func serveFinal(w *wctx) {
	n := w.d.Ref.Nodes
	w.call("main", "check", fmt.Sprintf("top GR %d", n), false, func(r Resp) error {
		if err := checkFullScores(n)(r); err != nil {
			return err
		}
		if !sameRows(r.Rows[:10], w.top.Rows) {
			return fmt.Errorf("full listing disagrees with top 10")
		}
		return nil
	})
}

// updateSetup binds the resident graph, its scores and warm algo answers.
func updateSetup(w *wctx) error {
	d, ref := w.d, w.d.Ref
	w.ref = newDynRef(d.Src, d.Dst)
	w.tops = nil
	w.reads = nil
	w.mutSent.Store(0)
	w.mutDone.Store(0)
	w.prSent.Store(0)
	w.prDone.Store(0)
	if _, ok := w.session("main"); !ok {
		return fmt.Errorf("create session main")
	}
	c := func(key, cmd string, check func(Resp) error) Resp {
		r := w.call("main", key, cmd, false, check)
		return r
	}
	c("load", "load E "+d.EdgesPath+" src:int dst:int", wantMsg(rowsMsg("E", d.EdgeRows)))
	c("tograph", "tograph G E src dst", wantMsg(graphMsg("G", ref.Nodes, ref.Edges)))
	c("pagerank", "pagerank PR G", wantMsg(scoredMsg("PR", ref.Nodes)))
	w.tops = append(w.tops, c("top", "top PR 10", checkTop(10, ref.Nodes)).Rows)
	c("algo", "algo G wcc", wantMsg(wccMsg(ref)))
	c("algo", "algo G 3core", wantMsg(coreMsg(ref)))
	return nil
}

// readAnswer is one reader answer awaiting its post-run check: it must
// match the graph (or scores) state at some index within [lo, hi], the
// states that were current while the request was in flight.
type readAnswer struct {
	kind   string // "wcc", "3core" or "top"
	resp   Resp
	lo, hi int64
}

func updateRun(w *wctx, deadline time.Time) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for k := 0; time.Now().Before(deadline) && 2*k+1 < len(w.muts); k++ {
			t := time.Now()
			w.rec.iter(t, updateCycle(w, k))
		}
	}()
	go func() { // reader
		defer wg.Done()
		for j := 0; time.Now().Before(deadline); j++ {
			readStep(w, j)
		}
	}()
	wg.Wait()
}

// readStep is the reader's j-th query. Its answer is checked after the
// run, against the states current while it was in flight.
func readStep(w *wctx, j int) {
	kind := [...]string{"wcc", "3core", "top"}[j%3]
	var lo, hi int64
	var resp Resp
	if kind == "top" {
		lo = w.prDone.Load()
		resp = w.call("main", "top", "top PR 10", true, checkTop(10, 1<<62))
		hi = w.prSent.Load()
	} else {
		lo = w.mutDone.Load()
		resp = w.call("main", "algo", "algo G "+kind, true, nil)
		hi = w.mutSent.Load()
	}
	w.readsMu.Lock()
	w.reads = append(w.reads, readAnswer{kind: kind, resp: resp, lo: lo, hi: hi})
	w.readsMu.Unlock()
}

// updateCycle applies one add/delete pair, then asks for the fresh
// pagerank and its top 10; returns the cycle's wall time.
func updateCycle(w *wctx, k int) time.Duration {
	t0 := time.Now()
	for j := 0; j < 2; j++ {
		m := w.muts[2*k+j]
		w.mutSent.Add(1)
		verb := "deleted"
		if m.Add {
			verb = "added"
		}
		applied := 2*k + j + 1
		want := fmt.Sprintf("G: %s edge %d -> %d (%d pending deltas)", verb, m.S, m.D, applied)
		key := "deledge"
		if m.Add {
			key = "addedge"
		}
		w.call("main", key, m.Cmd("G"), false, wantMsg(want))
		w.ref.apply(m)
		w.mutDone.Add(1)
	}
	w.prSent.Add(1)
	w.call("main", "pagerank", "pagerank PR G", false, wantMsg(scoredMsg("PR", w.ref.numNodes())))
	w.prDone.Add(1)
	w.rec.fresh(t0)
	r := w.call("main", "top_w", "top PR 10", false, checkTop(10, w.ref.numNodes()))
	w.topsMu.Lock()
	w.tops = append(w.tops, r.Rows)
	w.topsMu.Unlock()
	return time.Since(t0)
}

// updateFinal checks every reader answer against the states current while
// it was in flight, then the final scores as a whole.
func updateFinal(w *wctx) {
	n := w.ref.numNodes()
	w.call("main", "check", fmt.Sprintf("top PR %d", n), false, checkFullScores(n))

	// Replay the mutation stream on a fresh reference, computing each
	// state's answers only when some reader answer needs them. Reads are
	// taken in order of their windows' lower ends, so the reference mostly
	// moves forward; an earlier state not yet computed restarts it.
	replay := newDynRef(w.d.Src, w.d.Dst)
	applied := int64(0)
	cache := map[int64]GraphRef{}
	state := func(m int64) GraphRef {
		if r, ok := cache[m]; ok {
			return r
		}
		if m < applied {
			replay, applied = newDynRef(w.d.Src, w.d.Dst), 0
		}
		for applied < m {
			replay.apply(w.muts[applied])
			applied++
		}
		r := replay.answers()
		cache[m] = r
		return r
	}
	reads := append([]readAnswer(nil), w.reads...)
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].lo < reads[j].lo })
	for _, ra := range reads {
		var err error
		switch ra.kind {
		case "top":
			err = fmt.Errorf("top PR 10 %v matches no pagerank answered during the request", ra.resp.Rows)
			for i := ra.lo; i <= ra.hi && i < int64(len(w.tops)); i++ {
				if sameRows(ra.resp.Rows, w.tops[i]) {
					err = nil
					break
				}
			}
		default:
			err = fmt.Errorf("algo G %s %q matches no graph state during the request", ra.kind, ra.resp.Message)
			for m := ra.lo; m <= ra.hi; m++ {
				g := state(m)
				want := wccMsg(g)
				if ra.kind == "3core" {
					want = coreMsg(g)
				}
				if ra.resp.Message == want {
					err = nil
					break
				}
			}
		}
		if err != nil {
			w.rec.failLater("reader "+ra.kind, err)
		}
	}
}

// reopenSetup builds the persisted state each reopen iteration starts
// from: a workspace snapshot and an RNGM image of the graph.
func reopenSetup(w *wctx) error {
	d, ref := w.d, w.d.Ref
	w.snap = filepath.Join(w.work, "ws.rngs")
	w.rngm = filepath.Join(w.work, "g.rngm")
	if _, ok := w.session("base"); !ok {
		return fmt.Errorf("create session base")
	}
	c := func(key, cmd string, check func(Resp) error) Resp {
		r := w.call("base", key, cmd, false, check)
		return r
	}
	c("load", "load P "+d.PostsPath+" "+postsSchema, wantMsg(rowsMsg("P", d.PostsRows)))
	c("load", "load E "+d.EdgesPath+" src:int dst:int", wantMsg(rowsMsg("E", d.EdgeRows)))
	c("tograph", "tograph G E src dst", wantMsg(graphMsg("G", ref.Nodes, ref.Edges)))
	c("pagerank", "pagerank GR G", wantMsg(scoredMsg("GR", ref.Nodes)))
	w.top = c("top", "top GR 10", checkTop(10, ref.Nodes))
	c("snapshot", "snapshot "+w.snap, wantMsg(fmt.Sprintf("snapshot: wrote 4 objects to %s", w.snap)))
	c("savemapped", "savemapped G "+w.rngm, wantMsg(fmt.Sprintf("wrote G as a mapped CSR image to %s", w.rngm)))
	reopenIter(w, 0, false)
	return nil
}

// reopenIter restores the snapshot into a fresh session, maps the RNGM
// image and queries it; returns the iteration's wall time.
func reopenIter(w *wctx, i int, full bool) time.Duration {
	ref := w.d.Ref
	sess := fmt.Sprintf("r%d", i)
	busy, ok := w.session(sess)
	if !ok {
		return busy
	}
	t0 := time.Now()
	c := func(key, cmd string, check func(Resp) error) {
		w.call(sess, key, cmd, true, check)
	}
	c("restore", "restore "+w.snap, wantMsg(fmt.Sprintf("restored 4 objects from %s", w.snap)))
	c("loadgraph", "loadgraph M "+w.rngm, wantPrefix(graphMsg("M", ref.Nodes, ref.Edges)+" (mapped directed"))
	c("pagerank", "pagerank MR M", wantMsg(scoredMsg("MR", ref.Nodes)))
	w.rec.fresh(t0)
	c("algo", "algo M wcc", wantMsg(wccMsg(ref)))
	c("top", "top MR 10", func(r Resp) error {
		if !sameRows(r.Rows, w.top.Rows) {
			return fmt.Errorf("mapped top 10 %v differs from the heap graph's %v", r.Rows, w.top.Rows)
		}
		return nil
	})
	busy += time.Since(t0)
	if full {
		w.call(sess, "check", fmt.Sprintf("top MR %d", ref.Nodes), false, checkFullScores(ref.Nodes))
	}
	return busy + w.drop(sess)
}
