// Package par provides the parallelism substrate used throughout the Ringo
// reproduction: range-partitioned parallel loops, parallel reduction,
// and parallel sorting. It plays the role OpenMP plays in the original C++
// implementation (Perez et al., SIGMOD 2015, §2.5): a handful of primitives
// that parallelize the critical loops of table and graph processing — the
// sort-first bulk graph construction, the text-ingest pipeline, the CSR
// view builders (graph.BuildView/BuildUView) and the parallel algorithm
// variants all run on these loops.
//
// Most primitives mirror OpenMP's static schedule: work splits into at
// most Workers() contiguous ranges up front, workers touch disjoint index
// ranges (no locks, no work stealing), and every call blocks until the
// loop completes. ForBlocks is the one dynamic schedule, for loops whose
// per-index cost is too skewed for an up-front split. Callers own all
// cross-range synchronization — typically by writing to disjoint slices
// sized in advance.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers reports the degree of parallelism used by this package, which is
// runtime.GOMAXPROCS(0). No loop primitive runs more than this many
// workers at once.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Split partitions [0, n) into at most parts contiguous ranges of nearly
// equal size. It never returns empty ranges; for n == 0 it returns nil.
func Split(n, parts int) []Range {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	chunk := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		out = append(out, Range{lo, hi})
		lo = hi
	}
	return out
}

// For runs fn over [0, n) split into contiguous ranges, one goroutine per
// worker. fn must be safe to call concurrently on disjoint ranges. For
// blocks until all ranges complete.
func For(n int, fn func(lo, hi int)) {
	ranges := Split(n, Workers())
	switch len(ranges) {
	case 0:
		return
	case 1:
		fn(ranges[0].Lo, ranges[0].Hi)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for _, r := range ranges {
		go func(r Range) {
			defer wg.Done()
			fn(r.Lo, r.Hi)
		}(r)
	}
	wg.Wait()
}

// ForBlocks runs fn over [0, n) cut into fixed-size blocks of block
// indices (the last one may be shorter), with workers claiming the next
// unclaimed block from a shared counter until none remain — OpenMP's
// schedule(dynamic, block), the dynamic counterpart of For's static
// split. It suits loops whose per-index cost is skewed, such as the
// degree-heavy nodes of a power-law graph bunched into one id range. fn
// must be safe to call concurrently on disjoint ranges; ForBlocks blocks
// until every block completes. block < 1 is treated as 1. With a single
// worker, fn runs once over all of [0, n).
func ForBlocks(n, block int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if block < 1 {
		block = 1
	}
	blocks := (n + block - 1) / block
	workers := min(Workers(), blocks)
	if workers == 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					return
				}
				lo := b * block
				fn(lo, min(lo+block, n))
			}
		}()
	}
	wg.Wait()
}

// ForEach runs fn for every index in [0, n) using For's range partitioning.
// It is a convenience wrapper for per-element loops.
func ForEach(n int, fn func(i int)) {
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs all fns concurrently and waits for them to finish.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// Reduce maps contiguous ranges of [0, n) through mapRange in parallel and
// folds the per-range results with combine. combine must be associative;
// results are folded in range order, so it need not be commutative. For
// n == 0 the identity value is returned.
func Reduce[T any](n int, identity T, mapRange func(lo, hi int) T, combine func(a, b T) T) T {
	ranges := Split(n, Workers())
	switch len(ranges) {
	case 0:
		return identity
	case 1:
		return combine(identity, mapRange(ranges[0].Lo, ranges[0].Hi))
	}
	parts := make([]T, len(ranges))
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for i, r := range ranges {
		go func(i int, r Range) {
			defer wg.Done()
			parts[i] = mapRange(r.Lo, r.Hi)
		}(i, r)
	}
	wg.Wait()
	acc := identity
	for _, p := range parts {
		acc = combine(acc, p)
	}
	return acc
}

// SumInt is Reduce specialized to summing int64 contributions, the most
// common reduction in the benchmarks (e.g. counting selected rows or
// triangles).
func SumInt(n int, mapRange func(lo, hi int) int64) int64 {
	return Reduce(n, 0, mapRange, func(a, b int64) int64 { return a + b })
}
