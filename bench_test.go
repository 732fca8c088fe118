// Benchmarks regenerating each table of the Ringo paper's evaluation (§3)
// plus ablations for the repository's design choices. One benchmark
// (or group) per table; cmd/ringo-bench prints the same results in the
// paper's row format. Dataset scales are laptop-sized; the notes on each
// cmd/ringo-bench report map the measured shapes to the paper's numbers.
package ringo_test

import (
	"bytes"
	"sync"
	"testing"

	"ringo"
	"ringo/internal/catalog"
	"ringo/internal/core"
	"ringo/internal/graph"
	"ringo/internal/xhash"
)

// Benchmark dataset: the LiveJournal stand-in at 1/500 scale (138K edge
// rows) and the Twitter stand-in at 1/10000 scale (150K edge rows). The
// core.Spec cache means each is generated once per process.
var (
	benchLJ = core.LJSim(0.002)
	benchTW = core.TWSim(0.0001)

	benchOnce   sync.Once
	benchGraphs map[string]*ringo.Graph
	benchUndirs map[string]*ringo.UGraph
)

func setupBench(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchGraphs = map[string]*ringo.Graph{}
		benchUndirs = map[string]*ringo.UGraph{}
		for _, s := range []core.Spec{benchLJ, benchTW} {
			g, err := ringo.ToGraph(s.CachedEdgeTable(), "src", "dst")
			if err != nil {
				panic(err)
			}
			benchGraphs[s.Name] = g
			benchUndirs[s.Name] = ringo.AsUndirected(g)
		}
	})
}

// --- Table 1: catalog statistics -----------------------------------------

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bins := catalog.Bins()
		if len(bins) != 6 {
			b.Fatal("wrong bin count")
		}
	}
}

// --- Table 2: in-memory object sizing ------------------------------------

func BenchmarkTable2MemorySizing(b *testing.B) {
	setupBench(b)
	t := benchLJ.CachedEdgeTable()
	g := benchGraphs[benchLJ.Name]
	for i := 0; i < b.N; i++ {
		if t.Bytes() <= 0 || g.Bytes() <= 0 {
			b.Fatal("zero size")
		}
	}
}

// --- Table 3: parallel graph algorithms ----------------------------------

func benchPageRank(b *testing.B, name string) {
	setupBench(b)
	g := benchGraphs[name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.PageRank(g, 0.85, 10)
	}
}

func BenchmarkTable3PageRankLJ(b *testing.B) { benchPageRank(b, "lj-sim") }
func BenchmarkTable3PageRankTW(b *testing.B) { benchPageRank(b, "tw-sim") }

func benchTriangles(b *testing.B, name string) {
	setupBench(b)
	u := benchUndirs[name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.CountTriangles(u)
	}
}

func BenchmarkTable3TrianglesLJ(b *testing.B) { benchTriangles(b, "lj-sim") }
func BenchmarkTable3TrianglesTW(b *testing.B) { benchTriangles(b, "tw-sim") }

// --- Table 4: select and join --------------------------------------------

func BenchmarkTable4Select10K(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		sel, err := t.Select("src", ringo.LT, int64(64)) // small prefix of the skewed space
		if err != nil {
			b.Fatal(err)
		}
		_ = sel
	}
}

func BenchmarkTable4SelectAllBut10K(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		sel, err := t.Select("src", ringo.GE, int64(64))
		if err != nil {
			b.Fatal(err)
		}
		_ = sel
	}
}

func benchJoin(b *testing.B, keys int64) {
	t := benchLJ.CachedEdgeTable()
	keyVals := make([]int64, keys)
	for i := range keyVals {
		keyVals[i] = int64(i)
	}
	right, err := ringo.NewTable(ringo.Schema{{Name: "key", Type: ringo.IntCol}})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keyVals {
		if err := right.AppendRow(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := ringo.Join(t, right, "src", "key")
		if err != nil {
			b.Fatal(err)
		}
		_ = j
	}
}

func BenchmarkTable4JoinSmallKeySet(b *testing.B) { benchJoin(b, 64) }
func BenchmarkTable4JoinLargeKeySet(b *testing.B) { benchJoin(b, 4096) }

// --- Table 5: conversions -------------------------------------------------

func BenchmarkTable5TableToGraph(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ringo.ToGraph(t, "src", "dst")
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

func BenchmarkTable5GraphToTable(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := ringo.ToTable(g, "src", "dst")
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// --- Table 6: sequential algorithms --------------------------------------

func BenchmarkTable6ThreeCore(b *testing.B) {
	setupBench(b)
	u := benchUndirs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.GetKCore(u, 3)
	}
}

func BenchmarkTable6SSSP(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.GetSSSP(g, nodes[i%len(nodes)])
	}
}

func BenchmarkTable6SCC(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.GetSCC(g)
	}
}

// --- Ablation: sort-first conversion vs naive per-edge insertion ---------

func BenchmarkAblationConversionSortFirst(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ringo.ToGraph(t, "src", "dst"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationConversionNaive(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ringo.NaiveToGraph(t, "src", "dst"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: dynamic hash-graph vs CSR for single-edge deletion --------
// The paper's §2.2 argument: CSR deletion is linear in the total edge
// count; the hash-of-nodes design is linear in node degree.

func BenchmarkAblationDeleteEdgeHashGraph(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name].Clone()
	var edges [][2]int64
	g.ForEdges(func(s, d int64) {
		if len(edges) < 4096 {
			edges = append(edges, [2]int64{s, d})
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.DelEdge(e[0], e[1])
		g.AddEdge(e[0], e[1])
	}
}

func BenchmarkAblationDeleteEdgeCSR(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	var edges [][2]int64
	g.ForEdges(func(s, d int64) {
		if len(edges) < 64 {
			edges = append(edges, [2]int64{s, d})
		}
	})
	// A CSR snapshot cannot drop an edge in place: deleting one is a
	// one-delta patch that rewrites every offset and neighbor array, O(V+E).
	v := graph.BuildView(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		hasEdge := func(src, dst int64) bool { return (src != e[0] || dst != e[1]) && g.HasEdge(src, dst) }
		p := graph.PatchView(v, g.HasNode, hasEdge, []graph.Delta{{Op: graph.DeltaDelEdge, Src: e[0], Dst: e[1]}})
		if p.NumEdges() != v.NumEdges()-1 {
			b.Fatal("edge missing")
		}
	}
}

// --- Ablation: hash-graph traversal vs CSR traversal ----------------------

func BenchmarkAblationTraverseHashGraph(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for _, id := range nodes {
			for _, nbr := range g.OutNeighbors(id) {
				sum += nbr
			}
		}
		if sum == 0 {
			b.Fatal("no edges traversed")
		}
	}
}

func BenchmarkAblationTraverseCSR(b *testing.B) {
	setupBench(b)
	v := graph.BuildView(benchGraphs[benchLJ.Name])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for u := int32(0); u < int32(v.NumNodes()); u++ {
			for _, nbr := range v.Out(u) {
				sum += int64(nbr)
			}
		}
		if sum == 0 {
			b.Fatal("no edges traversed")
		}
	}
}

// --- Ablation: parallel vs sequential algorithms -------------------------

func BenchmarkAblationPageRankSeq(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.PageRankSeq(g, 0.85, 10)
	}
}

func BenchmarkAblationTrianglesSeq(b *testing.B) {
	setupBench(b)
	u := benchUndirs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.CountTrianglesSeq(u)
	}
}

// --- Ablation: concurrent open-addressing map vs mutex-guarded Go map ----

func BenchmarkAblationXHashMapPut(b *testing.B) {
	const keys = 1 << 16
	m := xhash.NewMap(keys)
	b.RunParallel(func(pb *testing.PB) {
		k := int64(0)
		for pb.Next() {
			m.Put(k&(keys-1), k)
			k++
		}
	})
}

func BenchmarkAblationMutexMapPut(b *testing.B) {
	const keys = 1 << 16
	m := make(map[int64]int64, keys)
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		k := int64(0)
		for pb.Next() {
			mu.Lock()
			m[k&(keys-1)] = k
			mu.Unlock()
			k++
		}
	})
}

// --- Workspace snapshot encode/restore ------------------------------------

// BenchmarkSnapshotRoundTrip measures the full durability cycle the
// snapshot subsystem exists for: serialize a workspace holding an edge
// table, its graph and a PageRank score map, then restore it into a fresh
// workspace. Per-object encode/decode runs in parallel.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	setupBench(b)
	ws := ringo.NewWorkspace()
	ws.Set("E", ringo.Object{Table: benchLJ.CachedEdgeTable()})
	ws.Set("G", ringo.Object{Graph: benchGraphs[benchLJ.Name]})
	ws.Set("PR", ringo.Object{Scores: ringo.GetPageRank(benchGraphs[benchLJ.Name])})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ringo.SnapshotWorkspace(ws, &buf); err != nil {
			b.Fatal(err)
		}
		back, err := ringo.RestoreWorkspace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(back.Names()) != 3 {
			b.Fatal("restore lost objects")
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// --- Library benchmarks beyond the paper's tables ------------------------

func BenchmarkLibSelectExpr(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		if _, err := t.SelectExpr("src < 1000 and dst >= 16"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibGroupAggregate(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		if _, err := t.Aggregate([]string{"src"}, ringo.Count, "", "n"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibNextK(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ringo.NextK(t, "src", "dst", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibLouvain(b *testing.B) {
	setupBench(b)
	u := benchUndirs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.Louvain(u, 5)
	}
}

func BenchmarkLibBFSParallel(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.GetBFSParallel(g, nodes[i%len(nodes)], ringo.OutEdges)
	}
}

func BenchmarkLibApproxBetweenness(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringo.GetApproxBetweenness(g, 4, 1)
	}
}
