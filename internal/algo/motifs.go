package algo

import "ringo/internal/graph"

// MotifCounts are the counts of connected directed 3-node motifs involving
// a closed triangle, plus wedge (open triple) counts — the small-subgraph
// statistics SNAP exposes for network comparison.
type MotifCounts struct {
	// CyclicTriangles is the number of directed 3-cycles a->b->c->a.
	CyclicTriangles int64
	// TransTriangles is the number of transitive triangles
	// (a->b, b->c, a->c), counting each unordered triple once per
	// transitive orientation set.
	TransTriangles int64
	// Wedges is the number of undirected open triples (paths of length 2
	// whose endpoints are not adjacent).
	Wedges int64
}

// CountMotifs counts directed triangle motifs and undirected wedges.
func CountMotifs(g *graph.Directed) MotifCounts {
	return CountMotifsView(graph.BuildView(g))
}

// CountMotifsView is CountMotifs over a prebuilt CSR view.
func CountMotifsView(v *graph.View) MotifCounts {
	defer report(timed("motifs"))
	n := v.NumNodes()

	// Undirected adjacency for triangle/wedge enumeration, self-loops
	// dropped (they carry no motif information).
	adj := undirectedAdj(v, true)

	hasArc := func(a, b int32) bool {
		_, found := searchInt32(v.Out(a), b)
		return found
	}

	var mc MotifCounts
	// Triangles: enumerate undirected triangles u<x<w, classify arcs.
	for u := 0; u < n; u++ {
		adjU := adj[u]
		i := upperBound(adjU, int32(u))
		for ; i < len(adjU); i++ {
			x := adjU[i]
			forEachCommonAbove(adjU, adj[x], x, func(w int32) {
				uu := int32(u)
				// Count arcs among the 6 possible.
				arcs := 0
				cw := 0 // u->x->w->u cycle arcs
				ccw := 0
				if hasArc(uu, x) {
					arcs++
					cw++
				}
				if hasArc(x, uu) {
					arcs++
					ccw++
				}
				if hasArc(x, w) {
					arcs++
					cw++
				}
				if hasArc(w, x) {
					arcs++
					ccw++
				}
				if hasArc(w, uu) {
					arcs++
					cw++
				}
				if hasArc(uu, w) {
					arcs++
					ccw++
				}
				cycles := 0
				if cw == 3 {
					cycles++
				}
				if ccw == 3 {
					cycles++
				}
				mc.CyclicTriangles += int64(cycles)
				// Every set of 3 arcs covering all three undirected edges
				// that is not a cycle is transitive; with `arcs` arcs there
				// are combinations, but the standard census counts each
				// triple once if it has a transitive orientation: arcs >= 3
				// and not purely cyclic.
				if arcs >= 3 && cycles == 0 {
					mc.TransTriangles++
				}
			})
		}
	}

	// Wedges: paths of length 2 minus closed ones. Total triples centered
	// at each node: deg*(deg-1)/2; closed triples = 3*triangles.
	var closed int64
	var triples int64
	for u := 0; u < n; u++ {
		deg := int64(len(adj[u]))
		triples += deg * (deg - 1) / 2
		i := upperBound(adj[u], int32(u))
		for ; i < len(adj[u]); i++ {
			x := adj[u][i]
			closed += countCommonAbove(adj[u], adj[x], x)
		}
	}
	mc.Wedges = triples - 3*closed
	return mc
}

func searchInt32(a []int32, v int32) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == v
}

// countCommonAbove counts values present in both sorted slices that are
// strictly greater than floor.
func countCommonAbove(a, b []int32, floor int32) int64 {
	i := upperBound(a, floor)
	j := upperBound(b, floor)
	var count int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

func forEachCommonAbove(a, b []int32, floor int32, fn func(w int32)) {
	i := upperBound(a, floor)
	j := upperBound(b, floor)
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// upperBound returns the index of the first element > v in sorted a.
func upperBound(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
