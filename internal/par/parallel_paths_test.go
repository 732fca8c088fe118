package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withWorkers forces a worker count so the genuinely parallel code paths
// (multi-range splits, pairwise merges) execute even on single-CPU hosts.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForMultiWorkerPath(t *testing.T) {
	withWorkers(t, 4, func() {
		if Workers() != 4 {
			t.Skip("GOMAXPROCS not adjustable")
		}
		const n = 10_000
		var sum atomic.Int64
		For(n, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		if want := int64(n) * (n - 1) / 2; sum.Load() != want {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

func TestReduceMultiWorkerPath(t *testing.T) {
	withWorkers(t, 4, func() {
		got := SumInt(100_000, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		})
		if want := int64(100_000) * 99_999 / 2; got != want {
			t.Fatalf("SumInt = %d, want %d", got, want)
		}
	})
}

func TestSortInt64sParallelMergePath(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, n := range []int{parallelSortMin + 1, 3*parallelSortMin + 17} {
			a := make([]int64, n)
			rngFill(a, uint64(n))
			SortInt64s(a)
			for i := 1; i < n; i++ {
				if a[i-1] > a[i] {
					t.Fatalf("n=%d: unsorted at %d", n, i)
				}
			}
		}
	})
}

func TestSortPairsParallelMergePath(t *testing.T) {
	withWorkers(t, 4, func() {
		// Odd worker count exercises the odd-run copy branch too.
		for _, workers := range []int{3, 4, 5} {
			prev := runtime.GOMAXPROCS(workers)
			n := 2*parallelSortMin + 311
			keys := make([]int64, n)
			vals := make([]int64, n)
			rngFill(keys, 7)
			rngFill(vals, 11)
			type pair struct{ k, v int64 }
			count := map[pair]int{}
			for i := 0; i < n; i++ {
				count[pair{keys[i], vals[i]}]++
			}
			SortPairs(keys, vals)
			for i := 1; i < n; i++ {
				if keys[i-1] > keys[i] || (keys[i-1] == keys[i] && vals[i-1] > vals[i]) {
					t.Fatalf("workers=%d: unsorted at %d", workers, i)
				}
			}
			for i := 0; i < n; i++ {
				p := pair{keys[i], vals[i]}
				count[p]--
				if count[p] < 0 {
					t.Fatalf("workers=%d: pair multiset changed", workers)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	})
}

func TestDoSingleFunction(t *testing.T) {
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("Do(single) did not run")
	}
}

// TestForBlocksVisitsEachIndexOnce runs the dynamic schedule with four
// workers over block sizes that do and do not divide n: every index is
// visited exactly once and every range is one whole block (the last may
// be short).
func TestForBlocksVisitsEachIndexOnce(t *testing.T) {
	withWorkers(t, 4, func() {
		if Workers() != 4 {
			t.Skip("GOMAXPROCS not adjustable")
		}
		for _, c := range []struct{ n, block int }{
			{10_000, 512}, {10_000, 7}, {513, 512}, {5, 1}, {3, 0}, {1, 64}, {0, 8},
		} {
			counts := make([]int32, c.n)
			var calls atomic.Int64
			ForBlocks(c.n, c.block, func(lo, hi int) {
				calls.Add(1)
				block := max(c.block, 1)
				if lo%block != 0 || hi <= lo || (hi-lo != block && hi != c.n) {
					t.Errorf("n=%d block=%d: range [%d,%d) is not one block", c.n, c.block, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, k := range counts {
				if k != 1 {
					t.Fatalf("n=%d block=%d: index %d visited %d times", c.n, c.block, i, k)
				}
			}
			if want := (c.n + max(c.block, 1) - 1) / max(c.block, 1); int(calls.Load()) != want {
				t.Fatalf("n=%d block=%d: %d blocks run, want %d", c.n, c.block, calls.Load(), want)
			}
		}
	})
}
