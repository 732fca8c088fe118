package algo

import (
	"math"
	"slices"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// DefaultDamping is the standard PageRank damping factor.
const DefaultDamping = 0.85

// PageRank computes PageRank scores with the given damping factor and a
// fixed number of power iterations (the paper times 10 iterations), using
// all cores: each iteration splits the node range across workers, and each
// worker pulls rank from its nodes' in-neighbors — a contention-free "pull"
// formulation. Dangling-node mass is redistributed uniformly so scores sum
// to 1. Scores are returned keyed by node id.
func PageRank(g *graph.Directed, damping float64, iters int) map[int64]float64 {
	return PageRankView(graph.BuildView(g), damping, iters)
}

// PageRankView is PageRank over a prebuilt CSR view.
func PageRankView(v *graph.View, damping float64, iters int) map[int64]float64 {
	defer report(timed("pagerank"))
	pr, _ := pageRank(v, damping, iters, 0, false)
	return scoresToMap(v.IDs(), pr)
}

// PageRankSeq is the single-threaded PageRank used for the sequential
// baselines and the parallel-vs-sequential ablation.
func PageRankSeq(g *graph.Directed, damping float64, iters int) map[int64]float64 {
	v := graph.BuildView(g)
	pr, _ := pageRank(v, damping, iters, 0, true)
	return scoresToMap(v.IDs(), pr)
}

// PageRankConverged runs PageRank until the L1 change between iterations
// drops below tol or maxIters is reached, returning the scores and the
// number of iterations executed — the tolerance-based variant SNAP's
// GetPageRank exposes alongside the fixed-iteration one.
func PageRankConverged(g *graph.Directed, damping, tol float64, maxIters int) (map[int64]float64, int) {
	return PageRankConvergedView(graph.BuildView(g), damping, tol, maxIters)
}

// PageRankConvergedView is PageRankConverged over a prebuilt CSR view.
func PageRankConvergedView(v *graph.View, damping, tol float64, maxIters int) (map[int64]float64, int) {
	if v.NumNodes() == 0 {
		return nil, 0
	}
	pr, iters := pageRank(v, damping, maxIters, tol, false)
	return scoresToMap(v.IDs(), pr), iters
}

// pageRank runs the standard model — uniform teleport, dangling mass
// redistributed — from the uniform vector.
func pageRank(v *graph.View, damping float64, maxIters int, tol float64, seq bool) ([]float64, int) {
	n := v.NumNodes()
	if n == 0 {
		return nil, 0
	}
	pr := make([]float64, n)
	parFill(pr, 1.0/float64(n))
	p := powerIter{v: v, outDeg: outDegrees(v), damping: damping, seq: seq}
	return p.run(pr, maxIters, tol)
}

// PersonalizedPageRank computes PageRank with teleportation restricted to
// the given seed nodes (uniformly across them), the standard
// random-walk-with-restart relevance measure. Unknown seeds are ignored; it
// returns nil if no seed is a node of g.
func PersonalizedPageRank(g *graph.Directed, seeds []int64, damping float64, iters int) map[int64]float64 {
	return PersonalizedPageRankView(graph.BuildView(g), seeds, damping, iters)
}

// PersonalizedPageRankView is PersonalizedPageRank over a prebuilt CSR view.
func PersonalizedPageRankView(v *graph.View, seeds []int64, damping float64, iters int) map[int64]float64 {
	n := v.NumNodes()
	if n == 0 {
		return nil
	}
	seedIdx := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if i, ok := v.Index(s); ok {
			seedIdx = append(seedIdx, i)
		}
	}
	if len(seedIdx) == 0 {
		return nil
	}
	teleport := make([]float64, n)
	for _, i := range seedIdx {
		teleport[i] += 1.0 / float64(len(seedIdx))
	}
	p := powerIter{v: v, outDeg: outDegrees(v), damping: damping, teleport: teleport}
	pr, _ := p.run(slices.Clone(teleport), iters, 0)
	return scoresToMap(v.IDs(), pr)
}

// powerIter is the one PageRank power-iteration kernel every PageRank
// entry point runs. A sweep pulls rank over in-edges,
//
//	x'[i] = teleported mass · share(i) + d · Σ_{j→i} x[j]/outdeg(j),
//
// where share is the teleport vector (nil: uniform 1/n) and the
// teleported mass is (1-d) plus, unless discard is set, d times the mass
// parked on dangling nodes. With seq set both the dangling sum and the
// sweep run on one core — the sequential baseline of the §2.5 ablation;
// otherwise each splits the node range across workers, and the
// order-sensitive float sums fold in par.Reduce's fixed range order, so a
// given view and GOMAXPROCS always give the same bits.
type powerIter struct {
	v        *graph.View
	outDeg   []int32
	damping  float64
	teleport []float64
	discard  bool
	seq      bool
}

// run sweeps from x until maxIters sweeps have run or a sweep's L1 change
// falls strictly below tol — so tol 0 always spends the whole budget. It
// returns the final vector (x's buffer or a scratch one) and the sweeps
// run.
func (p *powerIter) run(x []float64, maxIters int, tol float64) ([]float64, int) {
	next := make([]float64, len(x))
	for it := 0; it < maxIters; it++ {
		diff := p.sweep(x, next)
		x, next = next, x
		if diff < tol {
			return x, it + 1
		}
	}
	return x, maxIters
}

// sweep writes one power-iteration step from x into next and returns its
// L1 change.
func (p *powerIter) sweep(x, next []float64) float64 {
	v, outDeg, d, teleport := p.v, p.outDeg, p.damping, p.teleport
	n := len(x)
	var dangling float64
	if !p.discard {
		dangling = p.sum(n, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				if outDeg[i] == 0 {
					s += x[i]
				}
			}
			return s
		})
	}
	base := (1-d)/float64(n) + d*dangling/float64(n)
	mass := (1 - d) + d*dangling
	return p.sum(n, func(lo, hi int) float64 {
		var diff float64
		for i := lo; i < hi; i++ {
			var sum float64
			for _, src := range v.In(int32(i)) {
				sum += x[src] / float64(outDeg[src])
			}
			if teleport == nil {
				next[i] = base + d*sum
			} else {
				next[i] = mass*teleport[i] + d*sum
			}
			diff += math.Abs(next[i] - x[i])
		}
		return diff
	})
}

// sum folds fn over [0, n) under the kernel's schedule.
func (p *powerIter) sum(n int, fn func(lo, hi int) float64) float64 {
	if p.seq {
		return fn(0, n)
	}
	return par.Reduce(n, 0.0, fn, func(a, b float64) float64 { return a + b })
}

func outDegrees(v *graph.View) []int32 {
	outDeg := make([]int32, v.NumNodes())
	for i := range outDeg {
		outDeg[i] = int32(v.OutDeg(int32(i)))
	}
	return outDeg
}

// HITSScores holds hub and authority scores keyed by node id.
type HITSScores struct {
	Hub       map[int64]float64
	Authority map[int64]float64
}

// HITS computes Kleinberg's hubs-and-authorities scores by power iteration
// with L2 normalization each round.
func HITS(g *graph.Directed, iters int) HITSScores {
	return HITSView(graph.BuildView(g), iters)
}

// HITSView is HITS over a prebuilt CSR view.
func HITSView(v *graph.View, iters int) HITSScores {
	n := v.NumNodes()
	hub := make([]float64, n)
	auth := make([]float64, n)
	parFill(hub, 1)
	parFill(auth, 1)
	for it := 0; it < iters; it++ {
		// Authority: sum of hub scores of in-neighbors.
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, src := range v.In(int32(i)) {
					s += hub[src]
				}
				auth[i] = s
			}
		})
		normalize(auth)
		// Hub: sum of authority scores of out-neighbors.
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, dst := range v.Out(int32(i)) {
					s += auth[dst]
				}
				hub[i] = s
			}
		})
		normalize(hub)
	}
	return HITSScores{
		Hub:       scoresToMap(v.IDs(), hub),
		Authority: scoresToMap(v.IDs(), auth),
	}
}

func normalize(a []float64) {
	var sq float64
	for _, v := range a {
		sq += v * v
	}
	if sq == 0 {
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range a {
		a[i] *= inv
	}
}
