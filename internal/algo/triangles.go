package algo

import (
	"slices"
	"sync/atomic"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// Triangles counts undirected triangles in parallel. It is the algorithm
// benchmarked in Table 3: an edge-iterator with sorted adjacency-vector
// intersection ("similar to [6]" in the paper). Edges are first oriented
// from lower to higher (degree, dense index) rank, so each triangle is
// counted exactly once, at its lowest-ranked corner, and a hub only
// intersects against the few neighbors that outrank it.
func Triangles(g *graph.Undirected) int64 {
	return TrianglesView(graph.BuildUView(g))
}

// TrianglesView is Triangles over a prebuilt CSR view.
func TrianglesView(v *graph.UView) int64 {
	defer report(timed("triangles"))
	return countTriangles(v, false, nil)
}

// TrianglesSeq is the single-threaded triangle count (parallel-vs-
// sequential ablation baseline).
func TrianglesSeq(g *graph.Undirected) int64 {
	return TrianglesSeqView(graph.BuildUView(g))
}

// TrianglesSeqView is TrianglesSeq over a prebuilt CSR view: the same
// kernel as TrianglesView on a sequential schedule.
func TrianglesSeqView(v *graph.UView) int64 {
	return countTriangles(v, true, nil)
}

// triangleBlock is the number of nodes a worker claims at a time. Blocks
// are small against the node count, so the few hub-heavy blocks of a
// power-law graph spread over workers instead of landing in one static
// range, and large enough that claiming one is noise.
const triangleBlock = 512

// countTriangles is the one triangle kernel. It orients v by rank, then
// counts, for every oriented edge u->x, the common oriented neighbors of
// u and x; each is the top corner of one triangle. With per non-nil, every
// triangle is also added to the count of each of its three corners
// (per must hold NumNodes zeros). seq runs both phases on the calling
// goroutine.
func countTriangles(v *graph.UView, seq bool, per []int64) int64 {
	schedule := func(n int, fn func(lo, hi int)) { par.ForBlocks(n, triangleBlock, fn) }
	if seq {
		schedule = func(n int, fn func(lo, hi int)) { fn(0, n) }
	}
	o := orient(v, schedule)
	var total atomic.Int64
	schedule(v.NumNodes(), func(lo, hi int) {
		var sum int64
		for u := lo; u < hi; u++ {
			adjU := o.adj(u)
			var at int64
			for _, x := range adjU {
				c := intersect(adjU, o.adj(int(x)), per)
				if per != nil && c != 0 {
					atomic.AddInt64(&per[x], c)
				}
				at += c
			}
			if per != nil && at != 0 {
				atomic.AddInt64(&per[u], at)
			}
			sum += at
		}
		total.Add(sum)
	})
	return total.Load()
}

// oriented is the rank orientation of an undirected view: node u keeps
// only the neighbors ranked above it, where x outranks u when
// (Deg(x), x) > (Deg(u), u). Self-loops drop out. Filtering preserves
// order, so every list stays sorted by dense index.
type oriented struct {
	off []int64
	nbr []int32
}

func (o *oriented) adj(u int) []int32 { return o.nbr[o.off[u]:o.off[u+1]] }

func orient(v *graph.UView, schedule func(n int, fn func(lo, hi int))) *oriented {
	n := v.NumNodes()
	above := func(u, x int32) bool {
		du, dx := v.Deg(u), v.Deg(x)
		return dx > du || (dx == du && x > u)
	}
	o := &oriented{off: make([]int64, n+1)}
	schedule(n, func(lo, hi int) {
		for u := int32(lo); int(u) < hi; u++ {
			var k int64
			for _, x := range v.Adj(u) {
				if above(u, x) {
					k++
				}
			}
			o.off[u+1] = k
		}
	})
	for u := 0; u < n; u++ {
		o.off[u+1] += o.off[u]
	}
	o.nbr = make([]int32, o.off[n])
	schedule(n, func(lo, hi int) {
		for u := int32(lo); int(u) < hi; u++ {
			at := o.off[u]
			for _, x := range v.Adj(u) {
				if above(u, x) {
					o.nbr[at] = x
					at++
				}
			}
		}
	})
	return o
}

// intersect counts the common elements of two sorted slices by merging
// them, adding one to per[w] for each common w when per is non-nil.
func intersect(a, b []int32, per []int64) int64 {
	i, j := 0, 0
	var count int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if per != nil {
				atomic.AddInt64(&per[a[i]], 1)
			}
			count++
			i++
			j++
		}
	}
	return count
}

// NodeTriangles returns, for every node, the number of triangles the node
// participates in (each triangle counted at all three corners).
func NodeTriangles(g *graph.Undirected) map[int64]int64 {
	return NodeTrianglesView(graph.BuildUView(g))
}

// NodeTrianglesView is NodeTriangles over a prebuilt CSR view.
func NodeTrianglesView(v *graph.UView) map[int64]int64 {
	counts := nodeTriangleCounts(v)
	out := make(map[int64]int64, len(counts))
	for i, id := range v.IDs() {
		out[id] = counts[i]
	}
	return out
}

// nodeTriangleCounts returns the per-node triangle counts by dense index.
func nodeTriangleCounts(v *graph.UView) []int64 {
	counts := make([]int64, v.NumNodes())
	countTriangles(v, false, counts)
	return counts
}

// ClusteringCoefficient returns the average local clustering coefficient:
// for each node, the fraction of its neighbor pairs that are connected,
// averaged over nodes with degree >= 2 contributing their ratio and others
// contributing 0, as in SNAP's GetClustCf.
func ClusteringCoefficient(g *graph.Undirected) float64 {
	return ClusteringCoefficientView(graph.BuildUView(g))
}

// ClusteringCoefficientView is ClusteringCoefficient over a prebuilt CSR
// view. A node u of degree d (self-loop excluded) in t(u) triangles has
// 2·t(u) connected ordered neighbor pairs out of d(d−1).
func ClusteringCoefficientView(v *graph.UView) float64 {
	defer report(timed("clustering"))
	n := v.NumNodes()
	if n == 0 {
		return 0
	}
	tri := nodeTriangleCounts(v)
	total := par.Reduce(n, 0.0, func(lo, hi int) float64 {
		var s float64
		for u := int32(lo); int(u) < hi; u++ {
			deg := v.Deg(u)
			if _, loop := slices.BinarySearch(v.Adj(u), u); loop {
				deg--
			}
			if deg < 2 {
				continue
			}
			s += float64(2*tri[u]) / float64(deg*(deg-1))
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	return total / float64(n)
}
