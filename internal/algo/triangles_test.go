package algo

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/par"
)

func completeUndirected(n int) *graph.Undirected {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(int64(i), int64(j))
		}
	}
	return g
}

func TestTrianglesKnownCounts(t *testing.T) {
	cases := []struct {
		g    *graph.Undirected
		want int64
		name string
	}{
		{completeUndirected(3), 1, "K3"},
		{completeUndirected(4), 4, "K4"},
		{completeUndirected(5), 10, "K5"},
		{completeUndirected(6), 20, "K6"},
	}
	for _, c := range cases {
		if got := Triangles(c.g); got != c.want {
			t.Fatalf("%s: Triangles = %d, want %d", c.name, got, c.want)
		}
		if got := TrianglesSeq(c.g); got != c.want {
			t.Fatalf("%s: TrianglesSeq = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTrianglesPathHasNone(t *testing.T) {
	g := graph.NewUndirected()
	for i := int64(0); i < 10; i++ {
		g.AddEdge(i, i+1)
	}
	if got := Triangles(g); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
}

func TestTrianglesIgnoreSelfLoops(t *testing.T) {
	g := completeUndirected(3)
	g.AddEdge(0, 0)
	if got := Triangles(g); got != 1 {
		t.Fatalf("triangles with self-loop = %d, want 1", got)
	}
}

func TestNodeTrianglesSumIsThreeTimesTotal(t *testing.T) {
	g := completeUndirected(5)
	g.AddEdge(10, 11) // isolated edge, no triangles
	per := NodeTriangles(g)
	var sum int64
	for _, c := range per {
		sum += c
	}
	total := Triangles(g)
	if sum != 3*total {
		t.Fatalf("sum of per-node counts %d != 3×%d", sum, total)
	}
	if per[10] != 0 || per[11] != 0 {
		t.Fatal("isolated edge nodes have triangles")
	}
	// In K5, every node is in C(4,2) = 6 triangles.
	if per[0] != 6 {
		t.Fatalf("K5 node triangle count = %d, want 6", per[0])
	}
}

// brute-force reference: count triples with all three edges.
func bruteTriangles(g *graph.Undirected) int64 {
	nodes := g.Nodes()
	var count int64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) {
				continue
			}
			for k := j + 1; k < len(nodes); k++ {
				if g.HasEdge(nodes[j], nodes[k]) && g.HasEdge(nodes[i], nodes[k]) {
					count++
				}
			}
		}
	}
	return count
}

func TestTrianglesMatchBruteForceProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := graph.NewUndirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%12), int64(e[1]%12))
		}
		want := bruteTriangles(g)
		return Triangles(g) == want && TrianglesSeq(g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringCoefficientComplete(t *testing.T) {
	g := completeUndirected(6)
	if cc := ClusteringCoefficient(g); !approxEq(cc, 1, 1e-12) {
		t.Fatalf("clustering of K6 = %v, want 1", cc)
	}
}

func TestClusteringCoefficientStarIsZero(t *testing.T) {
	g := graph.NewUndirected()
	for i := int64(1); i <= 6; i++ {
		g.AddEdge(0, i)
	}
	if cc := ClusteringCoefficient(g); cc != 0 {
		t.Fatalf("clustering of star = %v", cc)
	}
}

func TestClusteringCoefficientTrianglePlusTail(t *testing.T) {
	// Triangle {0,1,2} plus tail 2-3. Nodes 0,1 have cc 1; node 2 has
	// cc = 1/3 (one of three neighbor pairs connected); node 3 deg 1 → 0.
	g := graph.NewUndirected()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	want := (1.0 + 1.0 + 1.0/3.0 + 0.0) / 4.0
	if cc := ClusteringCoefficient(g); !approxEq(cc, want, 1e-12) {
		t.Fatalf("clustering = %v, want %v", cc, want)
	}
}

func TestClusteringEmptyGraph(t *testing.T) {
	if cc := ClusteringCoefficient(graph.NewUndirected()); cc != 0 {
		t.Fatalf("clustering of empty graph = %v", cc)
	}
}

// oracleTriangles is the id-ordered edge-iterator the degree-ordered
// kernel replaced, kept as its oracle: every triangle is counted once, at
// its smallest dense index, by merging neighbor lists above a floor, and
// credited to all three corners in per.
func oracleTriangles(v *graph.UView) (total int64, per []int64) {
	per = make([]int64, v.NumNodes())
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		adjU := v.Adj(u)
		for _, x := range adjU[upperBound(adjU, u):] {
			forEachCommonAbove(adjU, v.Adj(x), x, func(w int32) {
				total++
				per[u]++
				per[x]++
				per[w]++
			})
		}
	}
	return total, per
}

// oracleClustering is the replaced clustering kernel: per node, count the
// connected ordered neighbor pairs by direct intersection, summed with the
// same par.Reduce split, so the kernel must match it bit for bit at the
// same GOMAXPROCS.
func oracleClustering(v *graph.UView) float64 {
	n := v.NumNodes()
	if n == 0 {
		return 0
	}
	total := par.Reduce(n, 0.0, func(lo, hi int) float64 {
		var s float64
		for u := int32(lo); int(u) < hi; u++ {
			adjU := v.Adj(u)
			deg := 0
			for _, x := range adjU {
				if x != u {
					deg++
				}
			}
			if deg < 2 {
				continue
			}
			var closed int64
			for _, x := range adjU {
				if x == u {
					continue
				}
				for _, w := range v.Adj(x) {
					if w != u && w != x {
						if _, ok := slices.BinarySearch(adjU, w); ok {
							closed++
						}
					}
				}
			}
			s += float64(closed) / float64(deg*(deg-1))
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	return total / float64(n)
}

// triangleShapes are the graphs the triangle family is checked on: random
// G(n,m) and small R-MAT graphs (skewed degrees, hubs at low ids, more
// nodes than one scheduling block), stars, cliques, self-loops and the
// empty and one-node graphs.
func triangleShapes() map[string]*graph.Undirected {
	withLoops := func(g *graph.Undirected, every int64) *graph.Undirected {
		for _, id := range g.Nodes() {
			if id%every == 0 {
				g.AddEdge(id, id)
			}
		}
		return g
	}
	rmat := func(scale int, m int64, seed int64) *graph.Undirected {
		src, dst := gen.RMATEdges(scale, m, 0.57, 0.19, 0.19, seed)
		g := graph.NewUndirected()
		for i := range src {
			g.AddEdge(src[i], dst[i])
		}
		return g
	}
	one := graph.NewUndirected()
	one.AddNode(7)
	return map[string]*graph.Undirected{
		"gnm":          graph.AsUndirected(gen.GNM(300, 2500, 1)),
		"gnm-large":    withLoops(graph.AsUndirected(gen.GNM(3000, 20000, 2)), 7),
		"rmat":         rmat(10, 6000, 3),
		"rmat-large":   rmat(12, 30000, 4),
		"star":         graph.AsUndirected(gen.Star(600)),
		"clique":       gen.Complete(14),
		"clique-loops": withLoops(gen.Complete(9), 1),
		"empty":        graph.NewUndirected(),
		"one-node":     one,
	}
}

// withProcs runs fn at each GOMAXPROCS in turn, restoring the setting.
func withProcs(t *testing.T, fn func(procs int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

// TestTriangleFamilyMatchesOracle pins the four triangle entry points to
// the id-ordered oracle at GOMAXPROCS 1, 2 and 4: total counts exactly,
// per-node counts node by node, and the clustering coefficient bitwise.
func TestTriangleFamilyMatchesOracle(t *testing.T) {
	shapes := triangleShapes()
	withProcs(t, func(procs int) {
		for name, g := range shapes {
			v := graph.BuildUView(g)
			want, wantPer := oracleTriangles(v)
			if got := TrianglesView(v); got != want {
				t.Fatalf("%s procs=%d: TrianglesView = %d, oracle %d", name, procs, got, want)
			}
			if got := TrianglesSeqView(v); got != want {
				t.Fatalf("%s procs=%d: TrianglesSeqView = %d, oracle %d", name, procs, got, want)
			}
			per := NodeTrianglesView(v)
			if len(per) != v.NumNodes() {
				t.Fatalf("%s procs=%d: NodeTrianglesView has %d nodes, view %d", name, procs, len(per), v.NumNodes())
			}
			for i, id := range v.IDs() {
				if per[id] != wantPer[i] {
					t.Fatalf("%s procs=%d: node %d in %d triangles, oracle %d", name, procs, id, per[id], wantPer[i])
				}
			}
			got, wantCC := ClusteringCoefficientView(v), oracleClustering(v)
			if math.Float64bits(got) != math.Float64bits(wantCC) {
				t.Fatalf("%s procs=%d: clustering %v, oracle %v (not bit-identical)", name, procs, got, wantCC)
			}
		}
	})
}

// TestTrianglesOrderingInvariance relabels node ids by a random
// permutation, which reshuffles dense indices and so the rank order and
// block schedule; no count may move.
func TestTrianglesOrderingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, g := range triangleShapes() {
		nodes := g.Nodes()
		perm := rng.Perm(len(nodes))
		relabel := make(map[int64]int64, len(nodes))
		for i, id := range nodes {
			relabel[id] = int64(perm[i]) * 3
		}
		h := graph.NewUndirected()
		for _, id := range nodes {
			h.AddNode(relabel[id])
		}
		g.ForEdges(func(a, b int64) { h.AddEdge(relabel[a], relabel[b]) })

		gv, hv := graph.BuildUView(g), graph.BuildUView(h)
		if a, b := TrianglesView(gv), TrianglesView(hv); a != b {
			t.Fatalf("%s: %d triangles, %d after relabelling", name, a, b)
		}
		if a, b := TrianglesSeqView(gv), TrianglesSeqView(hv); a != b {
			t.Fatalf("%s: sequential %d triangles, %d after relabelling", name, a, b)
		}
		gp, hp := NodeTrianglesView(gv), NodeTrianglesView(hv)
		for id, c := range gp {
			if hp[relabel[id]] != c {
				t.Fatalf("%s: node %d in %d triangles, %d after relabelling", name, id, c, hp[relabel[id]])
			}
		}
		if a, b := ClusteringCoefficientView(gv), ClusteringCoefficientView(hv); !approxEq(a, b, 1e-12) {
			t.Fatalf("%s: clustering %v, %v after relabelling", name, a, b)
		}
	}
}

// FuzzTriangles decodes the input as edges among 32 labels, each pair of
// bytes one edge (self-loops and duplicates included), and spreads the
// labels over a 2,100-node id space padded with isolated nodes, so the
// graph spans several scheduling blocks. The kernel must equal a
// brute-force count over the adjacency matrix, per-node counts must match
// it node by node and sum to three times the total, and the sequential
// count must equal the parallel one.
func FuzzTriangles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{0, 1, 1, 2, 2, 0, 0, 0, 3, 0, 3, 1, 3, 2})
	f.Add([]byte{31, 0, 0, 15, 15, 31, 1, 1, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const labels, spread, pad = 32, 67, 2100
		var adj [labels][labels]bool
		g := graph.NewUndirected()
		for id := int64(0); id < pad; id++ {
			g.AddNode(id)
		}
		for i := 0; i+1 < len(data); i += 2 {
			a, b := int(data[i]%labels), int(data[i+1]%labels)
			adj[a][b], adj[b][a] = true, true
			g.AddEdge(int64(a*spread), int64(b*spread))
		}
		var want int64
		var wantPer [labels]int64
		for a := 0; a < labels; a++ {
			for b := a + 1; b < labels; b++ {
				for c := b + 1; c < labels; c++ {
					if adj[a][b] && adj[b][c] && adj[a][c] {
						want++
						wantPer[a]++
						wantPer[b]++
						wantPer[c]++
					}
				}
			}
		}
		v := graph.BuildUView(g)
		total := TrianglesView(v)
		if total != want {
			t.Fatalf("TrianglesView = %d, brute force %d", total, want)
		}
		if seq := TrianglesSeqView(v); seq != total {
			t.Fatalf("TrianglesSeqView = %d, TrianglesView %d", seq, total)
		}
		var sum int64
		for id, c := range NodeTrianglesView(v) {
			sum += c
			if id%spread == 0 && id/spread < labels && c != wantPer[id/spread] {
				t.Fatalf("node %d in %d triangles, brute force %d", id, c, wantPer[id/spread])
			} else if (id%spread != 0 || id/spread >= labels) && c != 0 {
				t.Fatalf("padding node %d in %d triangles", id, c)
			}
		}
		if sum != 3*total {
			t.Fatalf("per-node counts sum to %d, want 3×%d", sum, total)
		}
	})
}
