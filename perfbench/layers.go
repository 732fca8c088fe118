package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ringo/internal/algo"
	"ringo/internal/core"
	"ringo/internal/extmem"
	"ringo/internal/graph"
	"ringo/internal/repl"
	"ringo/internal/server"
	"ringo/internal/table"
)

// replayResult is what the traced in-process replay measured.
type replayResult struct {
	rec       *recorder            // checks made during the replay
	tr        *Tracer              // the layer pass's spans
	evalGroup map[string][]float64 // pass A latencies by command
	replGroup map[string][]float64 // pass B latencies by command
	replKey   map[string][]float64 // pass B (or repl probe) latencies by command kind
	// Gauges read off the layer pass's workspaces.
	viewBytes, indexBytes, mappedBytes float64
}

// replay runs the workload three more times in-process, each for a share
// of the run's seconds: through server.Server.Eval at the workload's
// client count (pass A), through repl.Engine.Eval on one goroutine (pass
// B), and as direct calls into each layer's public functions inside spans
// (pass C). Probes then time any layer the workload does not reach, on
// the same inputs, so every per-layer metric has a value.
func replay(wl *workload, d *Dataset, muts []Mutation, work string, seconds int) (*replayResult, error) {
	lr := &replayResult{rec: &recorder{}, tr: NewTracer()}
	// Per-layer metrics carry no bound, so the replay takes half the
	// measured time of the HTTP run.
	budget := time.Duration(seconds) * time.Second / 2

	srv := server.New(server.Config{AllowFileIO: true})
	wa := &wctx{ex: serverExec{srv}, d: d, rec: &recorder{}, work: work, muts: muts}
	if err := wl.setup(wa); err != nil {
		return nil, fmt.Errorf("pass A setup: %w", err)
	}
	wa.rec = &recorder{}
	wl.run(wa, time.Now().Add(budget*2/5))
	srv.Close()
	lr.evalGroup = wa.rec.byGroup()
	lr.merge(wa.rec)

	wb := &wctx{ex: newEngineExec(), d: d, rec: &recorder{}, work: work, muts: muts}
	if err := wl.setup(wb); err != nil {
		return nil, fmt.Errorf("pass B setup: %w", err)
	}
	wb.rec = &recorder{}
	serialRun(wl, wb, time.Now().Add(budget/5))
	lr.replKey, lr.replGroup = wb.rec.byKey(), wb.rec.byGroup()
	lr.merge(wb.rec)
	if wl.name != "serve_reads" {
		// The repl metrics name the serve_reads mix; other workloads time
		// that mix on a resident engine session.
		wp := &wctx{ex: newEngineExec(), d: d, rec: &recorder{}, work: work}
		if err := serveSetup(wp); err != nil {
			return nil, fmt.Errorf("repl probe setup: %w", err)
		}
		wp.rec = &recorder{}
		for r := 0; r < 12; r++ {
			serveRound(wp, r%2, r/2)
		}
		lr.replKey = wp.rec.byKey()
		lr.merge(wp.rec)
	}

	l := &layerPass{lr: lr, d: d, work: work}
	deadline := time.Now().Add(budget * 2 / 5)
	var err error
	switch wl.name {
	case "explore":
		err = l.explore(deadline)
	case "serve_reads":
		err = l.serveReads(deadline)
	case "update_query":
		err = l.updateQuery(muts, deadline)
	case "reopen":
		err = l.reopen(deadline)
	}
	if err != nil {
		return nil, err
	}
	if err := l.probes(); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return lr, nil
}

func (lr *replayResult) merge(r *recorder) {
	lr.rec.attempted += r.attempted
	lr.rec.failed += r.failed
	lr.rec.errs = append(lr.rec.errs, r.errs...)
}

// replKeys are the command kinds repl.eval_ms reports.
var replKeys = []string{"top", "show", "select", "algo_hit", "pagerank_hit"}

// serialRun drives a workload's command stream from one goroutine.
func serialRun(wl *workload, w *wctx, deadline time.Time) {
	switch wl.name {
	case "serve_reads":
		for r := 0; time.Now().Before(deadline); r++ {
			serveRound(w, r%2, r/2)
		}
	case "update_query":
		for k := 0; time.Now().Before(deadline) && 2*k+1 < len(w.muts); k++ {
			updateCycle(w, k)
			readStep(w, k)
		}
	default:
		wl.run(w, deadline)
	}
}

// layerPass replays a workload as direct calls into the layers, one span
// per call. The calls mirror what the repl verb handlers do for the same
// commands, so an op's spans cover its blocking path.
type layerPass struct {
	lr     *replayResult
	d      *Dataset
	work   string
	ops    int64
	warmed map[string]bool
	mu     sync.Mutex
}

// opCtx is one traced operation.
type opCtx struct {
	l    *layerPass
	op   int64
	root int32
	ws   *core.Workspace
	// suffix is appended to span names while set, keeping the small posts
	// pipeline's calls apart from the same layers' calls on the R-MAT
	// graph, which the metrics read.
	suffix string
}

// begin opens an op. The first op of each kind is a warm-up: its root is
// named warmup.<name> and the metrics skip its spans, as the HTTP run's
// set-up warms the server before measuring.
func (l *layerPass) begin(name string, ws *core.Workspace) *opCtx {
	l.mu.Lock()
	l.ops++
	op := l.ops
	if l.warmed == nil {
		l.warmed = map[string]bool{}
	}
	if !l.warmed[name] {
		l.warmed[name] = true
		name = warmupPrefix + name
	}
	l.mu.Unlock()
	return &opCtx{l: l, op: op, root: l.lr.tr.Begin(op, -1, name), ws: ws}
}

const warmupPrefix = "warmup."

// minOps is the fewest ops a layer-pass loop runs, deadline or not: the
// warm-up and one measured op.
const minOps = 2

func (o *opCtx) end() {
	o.l.lr.tr.End(o.root)
	o.l.gauges(o.ws)
}

// span times f as a child of the op's root; n is the work done, for rates.
func (o *opCtx) span(name string, n int64, f func()) int32 {
	id := o.l.lr.tr.Begin(o.op, o.root, name+o.suffix)
	f()
	o.l.lr.tr.End(id)
	if n > 0 {
		o.l.lr.tr.SetN(id, n)
	}
	return id
}

// check counts one replayed answer.
func (o *opCtx) check(what string, err error) { o.l.lr.rec.note("replay "+what, err) }

func (o *opCtx) expect(what string, got, want any) {
	var err error
	if fmt.Sprint(got) != fmt.Sprint(want) {
		err = fmt.Errorf("got %v, want %v", got, want)
	}
	o.check(what, err)
}

// view fetches a directed view through the workspace, naming the span by
// outcome (core.view.hit, .patch, .build or .mapped) from the cache
// counters; uview does the same for undirected views (core.uview.*).
func (o *opCtx) view(name string) *graph.View {
	var v *graph.View
	var err error
	o.viewSpan("core.view.", func() { v, err = o.ws.DirectedView(name) })
	o.check("view "+name, err)
	return v
}

func (o *opCtx) uview(name string) *graph.UView {
	var v *graph.UView
	var err error
	o.viewSpan("core.uview.", func() { v, err = o.ws.UndirectedView(name) })
	o.check("uview "+name, err)
	return v
}

func (o *opCtx) viewSpan(prefix string, f func()) {
	h0, m0, _, _ := o.ws.ViewCacheStats()
	p0, r0 := o.ws.PatchStats()
	id := o.l.lr.tr.Begin(o.op, o.root, "core.view")
	f()
	o.l.lr.tr.End(id)
	h1, m1, _, _ := o.ws.ViewCacheStats()
	p1, r1 := o.ws.PatchStats()
	outcome := "mapped"
	switch {
	case p1 > p0:
		outcome = "patch"
	case r1 > r0 || m1 > m0:
		outcome = "build"
	case h1 > h0:
		outcome = "hit"
	}
	o.l.lr.tr.Rename(id, prefix+outcome+o.suffix)
}

// gauges records the largest cache footprints seen.
func (l *layerPass) gauges(ws *core.Workspace) {
	if ws == nil {
		return
	}
	_, _, _, vb := ws.ViewCacheStats()
	_, _, _, ib := ws.IndexCacheStats()
	l.mu.Lock()
	l.lr.viewBytes = max(l.lr.viewBytes, float64(vb))
	l.lr.indexBytes = max(l.lr.indexBytes, float64(ib))
	l.mu.Unlock()
}

// load mirrors the load verb. Span names differ by input: table.load is
// the posts table, table.load_edges the R-MAT edge list.
func (o *opCtx) load(name, path string, schema table.Schema) *table.Table {
	var t *table.Table
	var err error
	spanName := "table.load"
	if len(schema) == 2 {
		spanName = "table.load_edges"
	}
	id := o.span(spanName, 0, func() { t, err = table.LoadTSVFile(path, schema, false) })
	o.check("load "+name, err)
	if err != nil {
		return nil
	}
	o.l.lr.tr.SetN(id, int64(t.NumRows()))
	o.ws.Set(name, core.Object{Table: t})
	return t
}

// selectEq mirrors the select verb: the equality index through the
// workspace cache, then the table-layer lookup and gather.
func (o *opCtx) selectEq(out, in, col string, val any, spanName string) *table.Table {
	t, err := o.ws.Table(in)
	o.check("table "+in, err)
	var idx *table.EqIndex
	o.span("core.index", 0, func() { idx, err = o.ws.TableEqIndex(in, col) })
	var res *table.Table
	o.span(spanName, 0, func() {
		if err == nil {
			if bm, ok := idx.Lookup(t, table.EQ, val); ok {
				res, err = t.SelectBitmap(bm)
				return
			}
		}
		res, err = t.Select(col, table.EQ, val)
	})
	o.check("select "+out, err)
	if res != nil {
		o.ws.Set(out, core.Object{Table: res})
	}
	return res
}

func (o *opCtx) tograph(out, in, src, dst string) *graph.Directed {
	t, err := o.ws.Table(in)
	o.check("table "+in, err)
	var g *graph.Directed
	o.span("conv.tograph", int64(t.NumRows()), func() { g, err = core.ToGraph(t, src, dst) })
	o.check("tograph "+out, err)
	if g != nil {
		o.ws.Set(out, core.Object{Graph: g})
	}
	return g
}

func (o *opCtx) pagerank(out, in, spanName string) map[int64]float64 {
	v := o.view(in)
	var pr map[int64]float64
	o.span(spanName, 10*v.NumEdges(), func() { pr = algo.PageRankView(v, algo.DefaultDamping, 10) })
	o.ws.Set(out, core.Object{Scores: pr})
	return pr
}

func (o *opCtx) topk(scores map[int64]float64) []algo.Scored {
	var top []algo.Scored
	o.span("algo.topk", int64(len(scores)), func() { top = algo.TopK(scores, 10) })
	return top
}

func (o *opCtx) wcc(g string) algo.Components {
	v := o.view(g)
	var c algo.Components
	o.span("algo.wcc", v.NumEdges(), func() { c = algo.WCCView(v) })
	return c
}

func (o *opCtx) kcore(g string) string {
	uv := o.uview(g)
	var n int
	var e int64
	o.span("algo.kcore", 0, func() { n, e = algo.KCoreStatsView(uv, 3) })
	return fmt.Sprintf("3-core: %d nodes, %d edges", n, e)
}

var edgeSchema = table.Schema{{Name: "src", Type: table.Int}, {Name: "dst", Type: table.Int}}

func (l *layerPass) explore(deadline time.Time) error {
	d, ref := l.d, l.d.Ref
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		o := l.begin("op.explore", core.NewWorkspace())
		o.load("P", d.PostsPath, postsSchemaTable)
		o.selectEq("J", "P", "Tag", exploreTag, "table.select")
		q := o.selectEq("Q", "J", "Type", "question", "table.select.sub")
		a := o.selectEq("A", "J", "Type", "answer", "table.select.sub")
		var qa *table.Table
		var err error
		o.span("table.join", int64(q.NumRows()+a.NumRows()), func() { qa, err = q.Join(a, "AcceptedId", "PostId") })
		o.check("join", err)
		o.ws.Set("QA", core.Object{Table: qa})
		o.suffix = ".posts"
		u := o.tograph("U", "QA", "UserId-1", "UserId-2")
		o.expect("tograph U", graphMsg("U", u.NumNodes(), int(u.NumEdges())), graphMsg("U", d.ExpNodes, d.ExpEdges))
		ur := o.pagerank("UR", "U", "algo.pagerank")
		var ut *table.Table
		o.span("core.scores2table", int64(len(ur)), func() { ut, err = core.TableFromMap(ur, "User", "Scr") })
		o.check("scores2table", err)
		o.ws.Set("UT", core.Object{Table: ut})
		o.topk(ur)
		o.suffix = ""
		o.load("E", d.EdgesPath, edgeSchema)
		g := o.tograph("G", "E", "src", "dst")
		o.expect("tograph G", graphMsg("G", g.NumNodes(), int(g.NumEdges())), graphMsg("G", ref.Nodes, ref.Edges))
		gr := o.pagerank("GR", "G", "algo.pagerank")
		o.expect("pagerank GR", len(gr), ref.Nodes)
		c := o.wcc("G")
		o.expect("wcc", fmt.Sprintf("%d weak components, largest %d", c.Count, c.MaxSize), wccMsg(ref))
		uv := o.uview("G")
		var tri int64
		o.span("algo.triangles", uv.NumEdges(), func() { tri = algo.TrianglesView(uv) })
		o.expect("triangles", tri, ref.Triangles)
		o.expect("3core", o.kcore("G"), coreMsg(ref))
		o.topk(gr)
		o.end()
	}
	return nil
}

// serveReads replays serve_reads' mix against a resident workspace with a
// result cache, as the server holds it.
func (l *layerPass) serveReads(deadline time.Time) error {
	d, ref := l.d, l.d.Ref
	ws := core.NewWorkspace()
	cache := server.NewLRU(server.DefaultCacheSize)
	setup := l.begin("op.setup", ws)
	setup.load("P", d.PostsPath, postsSchemaTable)
	setup.load("E", d.EdgesPath, edgeSchema)
	setup.tograph("G", "E", "src", "dst")
	gr := setup.pagerank("GR", "G", "algo.pagerank")
	fp, _ := ws.Fingerprint("G")
	cache.Put("pagerank|"+fp, repl.CachedResult{Scores: gr})
	cache.Put("algo wcc|"+fp, repl.CachedResult{Message: wccMsg(ref)})
	setup.end()
	for r := 0; r < minOps || time.Now().Before(deadline); r++ {
		o := l.begin("op.serve_reads", ws)
		o.topk(gr)
		p, _ := ws.Table("P")
		o.span("table.show", 5, func() {
			for row := 0; row < 5; row++ {
				for col := 0; col < p.NumCols(); col++ {
					_ = fmt.Sprint(p.Value(col, row))
				}
			}
		})
		o.span("server.result_cache", 0, func() {
			fp, _ := ws.Fingerprint("G")
			v, ok := cache.Get("algo wcc|" + fp)
			o.expect("algo hit", ok && v.Message == wccMsg(ref), true)
		})
		o.span("server.result_cache", 0, func() {
			fp, _ := ws.Fingerprint("G")
			v, ok := cache.Get("pagerank|" + fp)
			o.expect("pagerank hit", ok && len(v.Scores) == ref.Nodes, true)
			ws.Set(fmt.Sprintf("PR%d", r%2), core.Object{Scores: v.Scores})
		})
		tag := selectTags[r%len(selectTags)]
		s := o.selectEq(fmt.Sprintf("S%d", r%2), "P", "Tag", tag, "table.select_indexed")
		o.expect("select "+tag, s.NumRows(), d.TagRows[tag])
		o.end()
	}
	return nil
}

// updateQuery replays update_query's writer and reader on one workspace,
// with an RWMutex standing in for the server's session lock: mutations
// and pagerank exclusive, the reader's queries shared.
func (l *layerPass) updateQuery(muts []Mutation, deadline time.Time) error {
	d := l.d
	ws := core.NewWorkspace()
	cache := server.NewLRU(server.DefaultCacheSize)
	var mu sync.RWMutex
	setup := l.begin("op.setup", ws)
	setup.load("E", d.EdgesPath, edgeSchema)
	setup.tograph("G", "E", "src", "dst")
	setup.pagerank("PR", "G", "algo.pagerank")
	setup.end()
	nodes := newDynRef(d.Src, d.Dst)

	lock := func(o *opCtx, shared bool) func() {
		o.span("server.lock_wait", 0, func() {
			if shared {
				mu.RLock()
			} else {
				mu.Lock()
			}
		})
		if shared {
			return mu.RUnlock
		}
		return mu.Unlock
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for k := 0; (k < minOps || time.Now().Before(deadline)) && 2*k+1 < len(muts); k++ {
			o := l.begin("op.update", ws)
			for _, m := range muts[2*k : 2*k+2] {
				unlock := lock(o, false)
				var ok bool
				var err error
				o.span("core.delta_append", 1, func() {
					if m.Add {
						ok, err = ws.AddGraphEdge("G", m.S, m.D)
					} else {
						ok, err = ws.DelGraphEdge("G", m.S, m.D)
					}
				})
				unlock()
				o.expect("mutation applied", ok && err == nil, true)
				nodes.apply(m)
			}
			unlock := lock(o, false)
			pr := o.pagerank("PR", "G", "algo.pagerank")
			unlock()
			o.expect("pagerank nodes", len(pr), nodes.numNodes())
			unlock = lock(o, true)
			o.topk(pr)
			unlock()
			o.end()
		}
	}()
	go func() { // reader
		defer wg.Done()
		for j := 0; j < minOps || time.Now().Before(deadline); j++ {
			o := l.begin("op.read", ws)
			unlock := lock(o, true)
			switch j % 3 {
			case 0, 1:
				verb := [...]string{"algo wcc", "algo 3core"}[j%3]
				fp, _ := ws.Fingerprint("G")
				var hit bool
				o.span("server.result_cache", 0, func() { _, hit = cache.Get(verb + "|" + fp) })
				if !hit {
					msg := ""
					if j%3 == 0 {
						c := o.wcc("G")
						msg = fmt.Sprintf("%d weak components, largest %d", c.Count, c.MaxSize)
					} else {
						msg = o.kcore("G")
					}
					cache.Put(verb+"|"+fp, repl.CachedResult{Message: msg})
				}
			default:
				sc, err := ws.Scores("PR")
				o.check("scores PR", err)
				o.topk(sc)
			}
			unlock()
			o.end()
		}
	}()
	wg.Wait()
	return nil
}

// reopen replays the warm start: restore the snapshot into a fresh
// workspace, map the RNGM image, and query it.
func (l *layerPass) reopen(deadline time.Time) error {
	snap, rngm, top, err := l.persisted()
	if err != nil {
		return err
	}
	ref := l.d.Ref
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		ws := core.NewWorkspace()
		o := l.begin("op.reopen", ws)
		var err error
		o.span("snapshot.restore", fileSize(snap), func() { err = ws.RestoreFile(snap) })
		o.expect("restore", err == nil && len(ws.Names()) == 4, true)
		var mg *extmem.Graph
		o.span("extmem.open", 0, func() { mg, err = extmem.Open(rngm) })
		o.check("open "+rngm, err)
		if err != nil {
			o.end()
			return err
		}
		ws.Set("M", core.Object{Mapped: mg})
		l.mu.Lock()
		l.lr.mappedBytes = float64(mg.Bytes())
		l.mu.Unlock()
		pr := o.pagerank("MR", "M", "algo.pagerank_mapped")
		c := o.wcc("M")
		o.expect("wcc", fmt.Sprintf("%d weak components, largest %d", c.Count, c.MaxSize), wccMsg(ref))
		o.expect("top", fmt.Sprint(o.topk(pr)), fmt.Sprint(top))
		o.span("extmem.close", 0, func() { err = mg.Close() })
		o.check("close", err)
		o.end()
	}
	return nil
}

// fileSize is the size of path in bytes, 0 if it cannot be read.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// persisted writes (once) the snapshot and RNGM image the reopen replay
// and probes read: the same four objects the HTTP workload snapshots.
func (l *layerPass) persisted() (snap, rngm string, top []algo.Scored, err error) {
	snap = filepath.Join(l.work, "replay.rngs")
	rngm = filepath.Join(l.work, "replay.rngm")
	ws := core.NewWorkspace()
	p, err := table.LoadTSVFile(l.d.PostsPath, postsSchemaTable, false)
	if err != nil {
		return "", "", nil, err
	}
	e, err := table.LoadTSVFile(l.d.EdgesPath, edgeSchema, false)
	if err != nil {
		return "", "", nil, err
	}
	g, err := core.ToGraph(e, "src", "dst")
	if err != nil {
		return "", "", nil, err
	}
	v := graph.BuildView(g)
	gr := algo.PageRankView(v, algo.DefaultDamping, 10)
	ws.Set("P", core.Object{Table: p})
	ws.Set("E", core.Object{Table: e})
	ws.Set("G", core.Object{Graph: g})
	ws.Set("GR", core.Object{Scores: gr})
	if err := ws.SnapshotFile(snap); err != nil {
		return "", "", nil, err
	}
	if err := extmem.SaveMapped(rngm, v); err != nil {
		return "", "", nil, err
	}
	return snap, rngm, algo.TopK(gr, 10), nil
}

// probeSpans are the span names per-layer metrics read; probes time any
// the workload's own pass did not produce.
var probeSpans = []string{
	"table.load", "table.select", "table.join", "table.select_indexed", "conv.tograph",
	"graph.build_view", "graph.build_uview", "graph.patch_view",
	"core.view.hit", "core.view.patch", "core.view.build", "core.delta_append",
	"algo.pagerank", "algo.wcc", "algo.triangles", "algo.kcore", "algo.topk",
	"algo.pagerank_mapped", "snapshot.restore", "extmem.open",
}

// probes times each missing span three times on the workload's inputs.
// graph.* spans always come from here: the workspace calls wrap them.
func (l *layerPass) probes() error {
	have := map[string]bool{}
	for _, s := range measured(l.lr.tr.Spans()) {
		have[s.Name] = true
	}
	missing := map[string]bool{}
	for _, n := range probeSpans {
		missing[n] = !have[n]
	}
	var snap, rngm string
	if missing["snapshot.restore"] || missing["extmem.open"] || missing["algo.pagerank_mapped"] {
		var err error
		if snap, rngm, _, err = l.persisted(); err != nil {
			return err
		}
	}
	for rep := 0; rep < 3; rep++ {
		ws := core.NewWorkspace()
		o := l.begin("op.probe", ws)
		run := func(name string, f func()) {
			if missing[name] {
				f()
			}
		}
		p := o.load("P", l.d.PostsPath, postsSchemaTable)
		run("table.select", func() { o.selectEq("J", "P", "Tag", exploreTag, "table.select") })
		run("table.select_indexed", func() { o.selectEq("J2", "P", "Tag", exploreTag, "table.select_indexed") })
		run("table.join", func() {
			q, _ := p.Select("Type", table.EQ, "question")
			a, _ := p.Select("Type", table.EQ, "answer")
			o.span("table.join", int64(q.NumRows()+a.NumRows()), func() { _, _ = q.Join(a, "AcceptedId", "PostId") })
		})
		o.load("E", l.d.EdgesPath, edgeSchema)
		g := o.tograph("G", "E", "src", "dst")
		run("graph.build_view", func() { o.span("graph.build_view", g.NumEdges(), func() { graph.BuildView(g) }) })
		run("graph.build_uview", func() {
			o.span("graph.build_uview", g.NumEdges(), func() { graph.BuildUView(graph.AsUndirected(g)) })
		})
		pr := o.pagerank("GR", "G", "algo.pagerank") // core.view.build
		o.view("G")                                  // core.view.hit
		run("algo.wcc", func() { o.wcc("G") })
		run("algo.kcore", func() { o.kcore("G") })
		run("algo.triangles", func() {
			uv := o.uview("G")
			o.span("algo.triangles", uv.NumEdges(), func() { algo.TrianglesView(uv) })
		})
		run("algo.topk", func() { o.topk(pr) })
		m := mutationStream(l.d, 1)
		run("graph.patch_view", func() {
			e, _ := o.ws.Table("E")
			g2, err := core.ToGraph(e, "src", "dst") // a private copy to mutate
			o.check("tograph copy", err)
			base := graph.BuildView(g2)
			g2.AddEdge(m[0].S, m[0].D)
			deltas := []graph.Delta{{Op: graph.DeltaAddEdge, Src: m[0].S, Dst: m[0].D}}
			o.span("graph.patch_view", 1, func() { graph.PatchView(base, g2.HasNode, g2.HasEdge, deltas) })
		})
		// core.delta_append and core.view.patch: mutate through the
		// workspace, then fetch the patched view.
		for _, mu := range m {
			o.span("core.delta_append", 1, func() {
				if mu.Add {
					_, _ = ws.AddGraphEdge("G", mu.S, mu.D)
				} else {
					_, _ = ws.DelGraphEdge("G", mu.S, mu.D)
				}
			})
		}
		o.view("G")
		if snap != "" {
			ws2 := core.NewWorkspace()
			o.span("snapshot.restore", fileSize(snap), func() { _ = ws2.RestoreFile(snap) })
			var mg *extmem.Graph
			var err error
			o.span("extmem.open", 0, func() { mg, err = extmem.Open(rngm) })
			if err != nil {
				o.end()
				return err
			}
			l.lr.mappedBytes = float64(mg.Bytes())
			o.span("algo.pagerank_mapped", 10*mg.NumEdges(), func() {
				algo.PageRankView(mg.View(), algo.DefaultDamping, 10)
			})
			_ = mg.Close()
		}
		o.end()
	}
	return nil
}

// postsSchemaTable is postsSchema as a table schema.
var postsSchemaTable = table.Schema{
	{Name: "PostId", Type: table.Int}, {Name: "Type", Type: table.String},
	{Name: "UserId", Type: table.Int}, {Name: "Tag", Type: table.String},
	{Name: "AcceptedId", Type: table.Int}, {Name: "ParentId", Type: table.Int},
	{Name: "Score", Type: table.Float},
}
