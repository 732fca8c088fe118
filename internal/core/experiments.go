package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"ringo/internal/algo"
	"ringo/internal/catalog"
	"ringo/internal/conv"
	"ringo/internal/graph"
	"ringo/internal/obs"
	"ringo/internal/par"
	"ringo/internal/table"
)

// Experiments regenerate each table of the paper's evaluation (§3) on the
// synthetic stand-in datasets. Absolute numbers differ from the paper's
// 80-hyperthread 1TB machine; the shapes the paper argues from (relative
// operation costs, flat conversion rates, graph smaller than table,
// footprint < 2× graph) are what the report notes track.

// Table1 reproduces Table 1: the size histogram of the 71 public graphs in
// the SNAP collection.
func Table1() Report {
	r := Report{
		Title:  "Table 1: Graph size statistics of the Stanford Large Network Collection (71 graphs)",
		Header: []string{"Number of Edges", "Number of Graphs"},
	}
	for _, b := range catalog.Bins() {
		r.Rows = append(r.Rows, []string{b.Label, fmt.Sprintf("%d", b.Count)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%.0f%% of graphs have fewer than 100M edges", 100*catalog.FractionBelow(100_000_000)))
	return r
}

// Table2 reproduces Table 2: dataset text size, in-memory graph size and
// in-memory table size for each experiment dataset.
func Table2(specs []Spec) (Report, error) {
	r := Report{
		Title: "Table 2: Experiment graphs",
		Header: []string{"Graph", "Stands in for", "Nodes", "Edges",
			"Text File Size", "In-memory Graph Size", "In-memory Table Size"},
	}
	for _, s := range specs {
		t := s.CachedEdgeTable()
		var cw countingWriter
		if err := t.SaveTSV(&cw, false); err != nil {
			return Report{}, err
		}
		g, err := conv.ToDirected(t, "src", "dst")
		if err != nil {
			return Report{}, err
		}
		r.Rows = append(r.Rows, []string{
			s.Name, s.PaperName,
			fmt.Sprintf("%d", g.NumNodes()), fmt.Sprintf("%d", g.NumEdges()),
			MB(cw.n), MB(g.Bytes()), MB(t.Bytes()),
		})
	}
	r.Notes = append(r.Notes,
		"shape check: graph object smaller than table object (paper: 0.7GB vs 1.1GB on LiveJournal)")
	return r, nil
}

// Table3 reproduces Table 3: parallel PageRank (10 iterations) and parallel
// triangle counting runtimes.
func Table3(specs []Spec) (Report, error) {
	r := Report{
		Title:  "Table 3: Parallel graph algorithms",
		Header: []string{"Operation", "Dataset", "Time", "Result"},
	}
	for _, s := range specs {
		g, err := conv.ToDirected(s.CachedEdgeTable(), "src", "dst")
		if err != nil {
			return Report{}, err
		}
		var pr map[int64]float64
		dt := Timed(func() { pr = algo.PageRank(g, algo.DefaultDamping, 10) })
		r.Rows = append(r.Rows, []string{"PageRank (10 iter)", s.Name, dt.Round(time.Millisecond).String(),
			fmt.Sprintf("%d nodes scored", len(pr))})

		u := graph.AsUndirected(g)
		var tri int64
		dt = Timed(func() { tri = algo.Triangles(u) })
		r.Rows = append(r.Rows, []string{"Triangle Counting", s.Name, dt.Round(time.Millisecond).String(),
			fmt.Sprintf("%d triangles", tri)})
	}
	return r, nil
}

// Table4 reproduces Table 4: Select and Join performance with an output of
// about 10K rows and of all-but-10K rows, with rows/s rates (Join rates
// count both input tables, as in the paper).
func Table4(specs []Spec) (Report, error) {
	r := Report{
		Title:  "Table 4: Select and Join on tables",
		Header: []string{"Operation", "Dataset", "Output Rows", "Time", "Rows/s"},
	}
	for _, s := range specs {
		t := s.CachedEdgeTable()
		n := t.NumRows()
		if n < 30_000 {
			return Report{}, fmt.Errorf("dataset %s too small for the 10K selections", s.Name)
		}
		src, err := t.IntCol("src")
		if err != nil {
			return Report{}, err
		}
		sorted := append([]int64(nil), src...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		for _, c := range []struct {
			label  string
			target int
		}{
			{"Select 10K, in place", 10_000},
			{"Select all-10K, in place", n - 10_000},
		} {
			op, val := selectCut(sorted, c.target)
			work := t.Clone()
			var kept int
			dt := Timed(func() {
				kept, err = work.SelectInPlace("src", op, val)
			})
			if err != nil {
				return Report{}, err
			}
			r.Rows = append(r.Rows, []string{c.label, s.Name, fmt.Sprintf("%d", kept),
				dt.Round(time.Microsecond).String(), Rate(int64(n), dt)})
		}

		// Join keys: distinct src values accumulated by ascending frequency
		// until the target output size is reached.
		freq := map[int64]int64{}
		for _, v := range src {
			freq[v]++
		}
		distinct := make([]int64, 0, len(freq))
		for v := range freq {
			distinct = append(distinct, v)
		}
		sort.Slice(distinct, func(i, j int) bool {
			if freq[distinct[i]] != freq[distinct[j]] {
				return freq[distinct[i]] < freq[distinct[j]]
			}
			return distinct[i] < distinct[j]
		})
		pick := func(target int64) []int64 {
			var cum int64
			var out []int64
			for _, v := range distinct {
				if cum >= target {
					break
				}
				out = append(out, v)
				cum += freq[v]
			}
			return out
		}
		for _, c := range []struct {
			label  string
			target int64
		}{
			{"Join 10K", 10_000},
			{"Join all-10K", int64(n) - 10_000},
		} {
			keys := pick(c.target)
			right, err := table.FromIntColumns([]string{"key"}, [][]int64{keys})
			if err != nil {
				return Report{}, err
			}
			var joined *table.Table
			dt := Timed(func() {
				joined, err = t.Join(right, "src", "key")
			})
			if err != nil {
				return Report{}, err
			}
			r.Rows = append(r.Rows, []string{c.label, s.Name, fmt.Sprintf("%d", joined.NumRows()),
				dt.Round(time.Microsecond).String(), Rate(int64(n+right.NumRows()), dt)})
		}
	}
	r.Notes = append(r.Notes, "shape check: select faster than join; rates robust across output sizes")
	return r, nil
}

// selectCut picks the constant-comparison predicate over a sorted copy of
// the column whose match count lands closest to target rows. On heavily
// skewed columns (an R-MAT hub can occupy tens of thousands of rows) no
// threshold hits the target exactly; the report prints actual counts.
func selectCut(sorted []int64, target int) (table.CmpOp, int64) {
	vLT := sorted[target]
	countLT := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= vLT })
	vLE := sorted[target-1]
	countLE := sort.Search(len(sorted), func(i int) bool { return sorted[i] > vLE })
	if countLT > 0 && abs(countLT-target) <= abs(countLE-target) {
		return table.LT, vLT
	}
	return table.LE, vLE
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Table5 reproduces Table 5: table-to-graph and graph-to-table conversion
// times and edge rates.
func Table5(specs []Spec) (Report, error) {
	r := Report{
		Title:  "Table 5: Conversions between tables and graphs",
		Header: []string{"Conversion", "Dataset", "Rows/Edges", "Time", "Edges/s"},
	}
	for _, s := range specs {
		t := s.CachedEdgeTable()
		var g *graph.Directed
		var err error
		dt := Timed(func() { g, err = conv.ToDirected(t, "src", "dst") })
		if err != nil {
			return Report{}, err
		}
		r.Rows = append(r.Rows, []string{"Table to graph", s.Name,
			fmt.Sprintf("%d", t.NumRows()), dt.Round(time.Millisecond).String(), Rate(int64(t.NumRows()), dt)})

		var back *table.Table
		dt = Timed(func() { back, err = conv.ToEdgeTable(g, "src", "dst") })
		if err != nil {
			return Report{}, err
		}
		r.Rows = append(r.Rows, []string{"Graph to table", s.Name,
			fmt.Sprintf("%d", back.NumRows()), dt.Round(time.Millisecond).String(), Rate(g.NumEdges(), dt)})
	}
	r.Notes = append(r.Notes, "shape check: rates roughly flat across dataset scales (conversion scales well)")
	return r, nil
}

// Table6 reproduces Table 6: single-threaded 3-core, SSSP (averaged over 10
// random sources) and SCC on the LiveJournal stand-in.
func Table6(spec Spec) (Report, error) {
	g, err := conv.ToDirected(spec.CachedEdgeTable(), "src", "dst")
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Table 6: Sequential graph algorithms on " + spec.Name,
		Header: []string{"Algorithm", "Time", "Result"},
	}

	u := graph.AsUndirected(g)
	var core3 *graph.Undirected
	dt := Timed(func() { core3 = algo.KCore(u, 3) })
	r.Rows = append(r.Rows, []string{"3-core", dt.Round(time.Millisecond).String(),
		fmt.Sprintf("%d nodes, %d edges", core3.NumNodes(), core3.NumEdges())})

	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(7))
	var reached int
	total := time.Duration(0)
	for i := 0; i < 10; i++ {
		src := nodes[rng.Intn(len(nodes))]
		total += Timed(func() { reached = len(algo.SSSPUnweighted(g, src)) })
	}
	r.Rows = append(r.Rows, []string{"SSSP (avg of 10 sources)", (total / 10).Round(time.Millisecond).String(),
		fmt.Sprintf("last run reached %d nodes", reached)})

	var comps algo.Components
	dt = Timed(func() { comps = algo.SCC(g) })
	r.Rows = append(r.Rows, []string{"SCC", dt.Round(time.Millisecond).String(),
		fmt.Sprintf("%d components, largest %d", comps.Count, comps.MaxSize)})
	return r, nil
}

// Footprint reproduces the §3 memory-footprint measurement: the peak extra
// heap during parallel PageRank and triangle counting, compared with the
// graph object size (the paper reports < 2× for both on Twitter2010).
func Footprint(spec Spec) (Report, error) {
	g, err := conv.ToDirected(spec.CachedEdgeTable(), "src", "dst")
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Memory footprint (§3) on " + spec.Name,
		Header: []string{"Computation", "Graph Size", "Peak Extra Heap", "Ratio"},
	}
	gb := g.Bytes()
	d := HeapDelta(func() { algo.PageRank(g, algo.DefaultDamping, 10) })
	r.Rows = append(r.Rows, []string{"PageRank (10 iter)", MB(gb), MB(d), fmt.Sprintf("%.2fx", float64(d)/float64(gb))})

	u := graph.AsUndirected(g)
	ub := u.Bytes()
	d = HeapDelta(func() { algo.Triangles(u) })
	r.Rows = append(r.Rows, []string{"Triangle Counting", MB(ub), MB(d), fmt.Sprintf("%.2fx", float64(d)/float64(ub))})
	r.Notes = append(r.Notes, "paper shape: footprint below 2x the graph object size")
	return r, nil
}

// Views measures the interactive-query model the view cache implements: a
// session's first analytics query pays the O(V+E) CSR view construction, a
// repeat query on the unchanged graph fetches the resident view in
// microseconds, and the end-to-end effect shows up as cold-vs-warm
// PageRank and triangle-count runtimes.
func Views(specs []Spec) (Report, error) {
	r := Report{
		Title:  "Views: fingerprint-keyed CSR view cache, cold vs warm queries",
		Header: []string{"Measurement", "Dataset", "Cold", "Warm", "Speedup"},
	}
	for _, s := range specs {
		g, err := conv.ToDirected(s.CachedEdgeTable(), "src", "dst")
		if err != nil {
			return Report{}, err
		}
		ws := NewWorkspace()
		ws.Set("g", Object{Graph: g})

		var v *graph.View
		cold := Timed(func() { v, err = ws.DirectedView("g") })
		if err != nil {
			return Report{}, err
		}
		var warm time.Duration
		const probes = 100
		warm = Timed(func() {
			for i := 0; i < probes; i++ {
				if v, err = ws.DirectedView("g"); err != nil {
					return
				}
			}
		}) / probes
		if err != nil {
			return Report{}, err
		}
		r.Rows = append(r.Rows, []string{"View fetch", s.Name,
			cold.Round(time.Microsecond).String(), warm.String(),
			fmt.Sprintf("%.0fx", cold.Seconds()/warm.Seconds())})

		prCold := Timed(func() { algo.PageRank(g, algo.DefaultDamping, 10) })
		prWarm := Timed(func() { algo.PageRankView(v, algo.DefaultDamping, 10) })
		r.Rows = append(r.Rows, []string{"PageRank (10 iter)", s.Name,
			prCold.Round(time.Millisecond).String(), prWarm.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", prCold.Seconds()/prWarm.Seconds())})

		// Cold triangles is what a server session pays for its first count
		// on a graph: a fresh workspace builds the directed view, projects
		// the undirected one from it, and counts.
		fresh := NewWorkspace()
		fresh.Set("g", Object{Graph: g})
		var uv *graph.UView
		triCold := Timed(func() {
			if uv, err = fresh.UndirectedView("g"); err == nil {
				algo.TrianglesView(uv)
			}
		})
		if err != nil {
			return Report{}, err
		}
		triWarm := Timed(func() { algo.TrianglesView(uv) })
		r.Rows = append(r.Rows, []string{"Triangle Counting", s.Name,
			triCold.Round(time.Millisecond).String(), triWarm.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", triCold.Seconds()/triWarm.Seconds())})
	}
	r.Notes = append(r.Notes,
		"cold = build the CSR view then compute (triangles: a fresh workspace builds the directed view and projects the undirected one from it); warm = cached view, flat-array compute only",
		"shape check: warm fetch is microseconds regardless of graph size; warm analytics approach pure compute time")
	return r, nil
}

// ObsOverhead measures the observability layer's tax on the hot path: the
// per-op cost of the lock-free internal/obs primitives, the per-call cost
// of the algo timing hook in both states (uninstalled: one atomic load;
// installed: a clock read plus a histogram record), the end-to-end effect
// on a real kernel, and the cost of rendering a /metrics scrape.
func ObsOverhead(spec Spec) (Report, error) {
	r := Report{
		Title:  "Observability overhead: internal/obs primitives and the algo timing hook",
		Header: []string{"Operation", "Iterations", "Total", "Per Op"},
	}
	reg := obs.NewRegistry()
	c := reg.Counter("bench_ops_total", "Benchmark counter.")
	g := reg.Gauge("bench_gauge", "Benchmark gauge.")
	h := reg.Histogram("bench_duration_seconds", "Benchmark histogram.", obs.L("op", "bench"))

	row := func(label string, iters int, dt time.Duration) {
		r.Rows = append(r.Rows, []string{label, fmt.Sprintf("%d", iters),
			dt.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fns", float64(dt.Nanoseconds())/float64(iters))})
	}

	const n = 5_000_000
	row("Counter.Inc", n, Timed(func() {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}))
	row("Gauge.Set", n, Timed(func() {
		for i := 0; i < n; i++ {
			g.Set(int64(i))
		}
	}))
	row("Histogram.Observe", n, Timed(func() {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i))
		}
	}))

	// The timing hook around every instrumented algo entry point, measured
	// through a trivially cheap kernel (single-node WCC view) so the hook
	// is a visible fraction of the call rather than noise under a long run.
	g1, err := conv.ToDirected(spec.CachedEdgeTable(), "src", "dst")
	if err != nil {
		return Report{}, err
	}
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g1})
	v, err := ws.DirectedView("g")
	if err != nil {
		return Report{}, err
	}

	const runs = 10
	algo.SetTimer(nil)
	off := Timed(func() {
		for i := 0; i < runs; i++ {
			algo.PageRankView(v, algo.DefaultDamping, 10)
		}
	})
	algoHist := reg.Histogram("ringo_algo_duration_seconds", "Algorithm kernel wall time.", obs.L("algo", "pagerank"))
	algo.SetTimer(func(name string, elapsed time.Duration) { algoHist.Observe(elapsed) })
	on := Timed(func() {
		for i := 0; i < runs; i++ {
			algo.PageRankView(v, algo.DefaultDamping, 10)
		}
	})
	algo.SetTimer(nil)
	r.Rows = append(r.Rows, []string{"PageRank (10 iter), hook off", fmt.Sprintf("%d", runs),
		off.Round(time.Millisecond).String(), (off / runs).Round(time.Microsecond).String()})
	r.Rows = append(r.Rows, []string{"PageRank (10 iter), hook on", fmt.Sprintf("%d", runs),
		on.Round(time.Millisecond).String(), (on / runs).Round(time.Microsecond).String()})

	const scrapes = 1000
	var buf bytes.Buffer
	var werr error
	dt := Timed(func() {
		for i := 0; i < scrapes; i++ {
			buf.Reset()
			if werr = reg.WritePrometheus(&buf); werr != nil {
				return
			}
		}
	})
	if werr != nil {
		return Report{}, werr
	}
	row("WritePrometheus scrape", scrapes, dt)

	r.Notes = append(r.Notes,
		"primitives are lock-free atomics: target well under 50ns/op so instrumentation never shows up in query latency",
		fmt.Sprintf("hook on/off delta on a real kernel: %.2f%% (sub-noise — one clock read + one histogram record per kernel call)",
			100*(on.Seconds()-off.Seconds())/off.Seconds()),
		fmt.Sprintf("one /metrics render over %d series costs %s", scrapeSeries(reg), (dt/scrapes).Round(time.Microsecond)))
	return r, nil
}

// scrapeSeries counts the series a registry currently exposes.
func scrapeSeries(reg *obs.Registry) int {
	n := 0
	for _, name := range reg.Names() {
		n += len(reg.Series(name))
	}
	return n
}

// Ingest measures text edge-list loading, the paper's headline interactive
// cost ("load a billion-edge graph in minutes"): the sequential scanner
// loader against the parallel chunk-parse + sort-first-build pipeline, on a
// generated edge-list file per dataset.
func Ingest(specs []Spec) (Report, error) {
	r := Report{
		Title: "Ingest: text edge-list load, sequential scanner vs parallel pipeline",
		Header: []string{"Dataset", "File Size", "Edge Rows", "Seq Load", "Par Load",
			"Speedup", "Par Throughput"},
	}
	for _, s := range specs {
		t := s.CachedEdgeTable()
		f, err := os.CreateTemp("", "ringo-ingest-*.txt")
		if err != nil {
			return Report{}, err
		}
		path := f.Name()
		writeErr := t.SaveTSV(f, false)
		closeErr := f.Close()
		defer os.Remove(path)
		if writeErr != nil {
			return Report{}, writeErr
		}
		if closeErr != nil {
			return Report{}, closeErr
		}
		info, err := os.Stat(path)
		if err != nil {
			return Report{}, err
		}

		var seqG, parG *graph.Directed
		var seqErr, parErr error
		seqT := Timed(func() { seqG, seqErr = graph.LoadEdgeListFile(path) })
		parT := Timed(func() { parG, parErr = graph.LoadEdgeListParallelFile(path) })
		if seqErr != nil {
			return Report{}, seqErr
		}
		if parErr != nil {
			return Report{}, parErr
		}
		if seqG.NumNodes() != parG.NumNodes() || seqG.NumEdges() != parG.NumEdges() {
			return Report{}, fmt.Errorf("core: loader mismatch on %s: seq %d/%d, par %d/%d",
				s.Name, seqG.NumNodes(), seqG.NumEdges(), parG.NumNodes(), parG.NumEdges())
		}
		r.Rows = append(r.Rows, []string{
			s.Name, MB(info.Size()), fmt.Sprintf("%d", t.NumRows()),
			seqT.Round(time.Millisecond).String(), parT.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", seqT.Seconds()/parT.Seconds()),
			fmt.Sprintf("%s rows (%s/s)", Rate(int64(t.NumRows()), parT), MB(int64(float64(info.Size())/parT.Seconds()))),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("both loaders produce identical graphs (equivalence- and fuzz-tested); GOMAXPROCS=%d", par.Workers()))
	return r, nil
}

// Incr measures the incremental-analytics tier on an update-then-query
// loop: a session holds a warm view, a batch of mutations lands, and the
// next query either patches the cached CSR and runs dynamic PageRank from
// the previous scores, or rebuilds from scratch and iterates PageRank
// cold. Both paths are timed on the same post-mutation graph state; the
// notes report where the crossover falls.
func Incr(spec Spec) (Report, error) {
	g, err := conv.ToDirected(spec.CachedEdgeTable(), "src", "dst")
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title: "Incr: update-then-query on " + spec.Name + ", patched view + dynamic PageRank vs cold rebuild",
		Header: []string{"Delta Edges", "Patch View", "Incr PageRank", "Patched Total",
			"Rebuild", "Cold PageRank", "Cold Total", "Speedup"},
	}

	// Edge pool for deletions; additions extend it so later batches can
	// delete what earlier batches added.
	edges := make([][2]int64, 0, g.NumEdges())
	g.ForEdges(func(src, dst int64) { edges = append(edges, [2]int64{src, dst}) })
	rng := rand.New(rand.NewSource(17))
	idSpace := int64(1) << spec.RMATScale

	const tol = 1e-8
	var prev map[int64]float64
	lastWin := int64(-1)
	crossed := false
	for _, batch := range []int{1, 64, 1024, 16384} {
		// Fresh workspace per batch so the delta log starts empty: each row
		// measures one warm view + one pending batch, not the cumulative
		// history of earlier rows. The ratio is set absurdly high so the
		// patch path is exercised at every batch size — the production
		// default (DefaultPatchRatio) would rebuild past its cutoff.
		ws := NewWorkspace()
		ws.ConfigurePatching(1e9)
		ws.Set("g", Object{Graph: g})
		if _, err := ws.DirectedView("g"); err != nil {
			return Report{}, err
		}
		if prev == nil {
			v, _ := ws.DirectedView("g")
			prev = algo.PageRankViewTol(v, algo.DefaultDamping, tol)
		}

		applied := 0
		for applied < batch {
			if rng.Intn(3) == 0 && len(edges) > 0 {
				i := rng.Intn(len(edges))
				if ok, err := ws.DelGraphEdge("g", edges[i][0], edges[i][1]); err != nil {
					return Report{}, err
				} else if ok {
					edges[i] = edges[len(edges)-1]
					edges = edges[:len(edges)-1]
					applied++
				}
			} else {
				s, d := rng.Int63n(idSpace), rng.Int63n(idSpace)
				if ok, err := ws.AddGraphEdge("g", s, d); err != nil {
					return Report{}, err
				} else if ok {
					edges = append(edges, [2]int64{s, d})
					applied++
				}
			}
		}

		p0, _ := ws.PatchStats()
		var v *graph.View
		tPatch := Timed(func() { v, err = ws.DirectedView("g") })
		if err != nil {
			return Report{}, err
		}
		if p1, _ := ws.PatchStats(); p1 != p0+1 {
			return Report{}, fmt.Errorf("core: incr report expected a patched view at batch %d", batch)
		}
		var incr map[int64]float64
		tIncr := Timed(func() { incr = algo.PageRankIncr(v, prev, algo.DefaultDamping, tol) })

		var cold *graph.View
		tRebuild := Timed(func() { cold = graph.BuildView(g) })
		tColdPR := Timed(func() { algo.PageRankViewTol(cold, algo.DefaultDamping, tol) })

		patched, coldTotal := tPatch+tIncr, tRebuild+tColdPR
		speed := coldTotal.Seconds() / patched.Seconds()
		if speed >= 1 {
			lastWin = int64(batch)
		} else {
			crossed = true
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", batch),
			tPatch.Round(time.Microsecond).String(), tIncr.Round(time.Microsecond).String(),
			patched.Round(time.Microsecond).String(),
			tRebuild.Round(time.Microsecond).String(), tColdPR.Round(time.Microsecond).String(),
			coldTotal.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speed),
		})
		prev = incr
	}

	switch {
	case crossed && lastWin >= 0:
		r.Notes = append(r.Notes, fmt.Sprintf("crossover: patching last wins at %d delta edges on this host", lastWin))
	case crossed:
		r.Notes = append(r.Notes, "crossover: cold rebuild won at every measured batch size on this host")
	default:
		r.Notes = append(r.Notes, "crossover: not reached — patching won at every measured batch size on this host")
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("production default patches only up to %.0f%% of V+E (DefaultPatchRatio) and caps the delta log at %d entries; larger batches rebuild", 100*DefaultPatchRatio, maxDeltaLog),
		"incremental PageRank chains from the previous batch's scores (equivalence to the cold oracle is test-enforced)")
	return r, nil
}
