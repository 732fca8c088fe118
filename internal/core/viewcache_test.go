package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/graph"
)

func testGraph(n, m int, seed int64) *graph.Directed {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewDirected()
	for i := 0; i < m; i++ {
		g.AddEdge(int64(rng.Intn(n)), int64(rng.Intn(n)))
	}
	return g
}

func TestDirectedViewCachedUntilMutation(t *testing.T) {
	ws := NewWorkspace()
	g := testGraph(100, 400, 1)
	ws.Set("g", Object{Graph: g})

	v1, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("second DirectedView on unchanged graph rebuilt the view")
	}
	hits, misses, entries, bytes := ws.ViewCacheStats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d entries; want 1/1/1", hits, misses, entries)
	}
	if bytes <= 0 {
		t.Fatalf("cached view bytes = %d, want > 0", bytes)
	}

	// In-place mutation + Touch: the old view must be evicted and a fresh
	// one built that sees the new edge.
	g.AddEdge(1000, 2000)
	ws.Touch("g")
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 0 {
		t.Fatalf("Touch left %d view entries", entries)
	}
	v3, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("view served after mutation is the stale snapshot")
	}
	if _, ok := v3.Index(2000); !ok {
		t.Fatal("post-mutation view does not contain the new node")
	}
}

func TestViewPurgeOnSetDeleteRename(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("a", Object{Graph: testGraph(50, 200, 2)})
	ws.Set("b", Object{Graph: testGraph(50, 200, 3)})
	if _, err := ws.DirectedView("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.DirectedView("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 2 {
		t.Fatalf("want 2 entries, got %d", entries)
	}
	// Rebinding a purges its view only.
	ws.Set("a", Object{Graph: testGraph(50, 200, 4)})
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("rebind: want 1 entry left, got %d", entries)
	}
	// Renaming b purges it too (its identity changed).
	if err := ws.Rename("b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 0 {
		t.Fatalf("rename: want 0 entries, got %d", entries)
	}
	if _, err := ws.DirectedView("c"); err != nil {
		t.Fatal(err)
	}
	if !ws.Delete("c") {
		t.Fatal("delete failed")
	}
	if _, _, entries, bytes := ws.ViewCacheStats(); entries != 0 || bytes != 0 {
		t.Fatalf("delete: want empty cache, got %d entries, %d bytes", entries, bytes)
	}
}

func TestViewPurgeOnRestore(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(50, 200, 5)})
	v1, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ws.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 0 {
		t.Fatalf("restore left %d view entries", entries)
	}
	v2, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if v2 == v1 {
		t.Fatal("view of restored object is the pre-restore snapshot")
	}
}

func TestUndirectedViewOfDirectedGraph(t *testing.T) {
	ws := NewWorkspace()
	g := testGraph(60, 300, 6)
	ws.Set("g", Object{Graph: g})
	uv, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	u := graph.AsUndirected(g)
	if uv.NumNodes() != u.NumNodes() || uv.NumEdges() != u.NumEdges() {
		t.Fatalf("uview %d/%d, projection %d/%d",
			uv.NumNodes(), uv.NumEdges(), u.NumNodes(), u.NumEdges())
	}
	// The workspace projects from the directed view; the result must be
	// arena-for-arena the view of the hashed AsUndirected projection.
	ids, off, arena := uv.UViewParts()
	wantIDs, wantOff, wantArena := graph.BuildUView(u).UViewParts()
	if !slices.Equal(ids, wantIDs) || !slices.Equal(off, wantOff) || !slices.Equal(arena, wantArena) {
		t.Fatal("workspace undirected view differs from BuildUView(AsUndirected(g))")
	}
	uv2, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if uv2 != uv {
		t.Fatal("undirected view rebuilt on unchanged graph")
	}
	// Building the undirected view went through the directed one, so the
	// directed fetch is a cache hit: the undirected entry waited on the
	// directed entry, never the reverse. Both stay cached independently.
	hits, misses, _, _ := ws.ViewCacheStats()
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	h, m, entries, _ := ws.ViewCacheStats()
	if h != hits+1 || m != misses {
		t.Fatalf("directed view after undirected: hits %d->%d, misses %d->%d; want one hit", hits, h, misses, m)
	}
	if entries != 2 {
		t.Fatalf("want 2 entries (dir + undir), got %d", entries)
	}

	// An undirected binding serves its own view through the same call.
	ws.Set("u", Object{UGraph: u})
	uv3, err := ws.UndirectedView("u")
	if err != nil {
		t.Fatal(err)
	}
	if uv3.NumEdges() != u.NumEdges() {
		t.Fatal("uview of undirected binding wrong")
	}
}

// TestUndirectedViewConcurrentWithDirected races first fetches of both
// orientations of a fresh binding, half the goroutines asking for the
// undirected view first. The undirected build waits on the directed
// entry it projects from, so there is no lock cycle; every goroutine must
// get the one cached view of each orientation, built once.
func TestUndirectedViewConcurrentWithDirected(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(400, 3000, 9)})
	const readers = 8
	dirs := make([]*graph.View, readers)
	undirs := make([]*graph.UView, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var err error
			if r%2 == 0 {
				if undirs[r], err = ws.UndirectedView("g"); err == nil {
					dirs[r], err = ws.DirectedView("g")
				}
			} else {
				if dirs[r], err = ws.DirectedView("g"); err == nil {
					undirs[r], err = ws.UndirectedView("g")
				}
			}
			if err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		if dirs[r] != dirs[0] || undirs[r] != undirs[0] {
			t.Fatalf("reader %d got a different view than reader 0", r)
		}
	}
	if _, misses, entries, _ := ws.ViewCacheStats(); misses != 2 || entries != 2 {
		t.Fatalf("%d misses, %d entries; want each orientation built once", misses, entries)
	}
}

// TestAlgorithmsCachedVsBypassed is the cache-correctness gate: every
// algorithm must return identical results whether its view came from the
// cache (twice, to cover the hit path) or was built fresh with caching
// disabled.
func TestAlgorithmsCachedVsBypassed(t *testing.T) {
	g := testGraph(80, 400, 7)
	cached := NewWorkspace()
	cached.Set("g", Object{Graph: g})
	bypass := NewWorkspace()
	bypass.ConfigureViewCache(0)
	bypass.Set("g", Object{Graph: g})

	for round := 0; round < 2; round++ { // round 1 hits the cache
		cv, err := cached.DirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		bv, err := bypass.DirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		if round == 1 && bv == cv {
			t.Fatal("bypass workspace served a cached view")
		}
		prC := algo.PageRankView(cv, algo.DefaultDamping, 10)
		prB := algo.PageRankView(bv, algo.DefaultDamping, 10)
		prDirect := algo.PageRank(g, algo.DefaultDamping, 10)
		for id, s := range prDirect {
			if dc := prC[id] - s; dc > 1e-12 || dc < -1e-12 {
				t.Fatalf("round %d: cached pagerank diverges at %d", round, id)
			}
			if db := prB[id] - s; db > 1e-12 || db < -1e-12 {
				t.Fatalf("round %d: bypassed pagerank diverges at %d", round, id)
			}
		}
		wC, wB, wD := algo.WCCView(cv), algo.WCCView(bv), algo.WCC(g)
		if wC.Count != wD.Count || wB.Count != wD.Count || wC.MaxSize != wD.MaxSize {
			t.Fatalf("round %d: wcc diverges: %d/%d/%d", round, wC.Count, wB.Count, wD.Count)
		}
		sC, sD := algo.SCCView(cv), algo.SCC(g)
		if sC.Count != sD.Count || sC.MaxSize != sD.MaxSize {
			t.Fatalf("round %d: scc diverges", round)
		}

		cu, err := cached.UndirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		bu, err := bypass.UndirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		u := graph.AsUndirected(g)
		if tc, tb, td := algo.TrianglesView(cu), algo.TrianglesView(bu), algo.Triangles(u); tc != td || tb != td {
			t.Fatalf("round %d: triangles diverge: %d/%d/%d", round, tc, tb, td)
		}
		nodes, edges := algo.KCoreStatsView(cu, 3)
		k := algo.KCore(u, 3)
		if nodes != k.NumNodes() || edges != k.NumEdges() {
			t.Fatalf("round %d: 3-core stats %d/%d, subgraph %d/%d",
				round, nodes, edges, k.NumNodes(), k.NumEdges())
		}
	}
}

// TestViewPurgeExactName guards the key scheme: purging one binding must
// not touch another whose name merely shares a prefix — including names
// containing '#', which a string-fingerprint prefix match would confuse.
func TestViewPurgeExactName(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(40, 150, 9)})
	ws.Set("g#1", Object{Graph: testGraph(40, 150, 10)})
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	v1, err := ws.DirectedView("g#1")
	if err != nil {
		t.Fatal(err)
	}
	ws.Touch("g")
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("purging %q left %d entries, want 1 (%q untouched)", "g", entries, "g#1")
	}
	v2, err := ws.DirectedView("g#1")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("view of %q was rebuilt after mutating %q", "g#1", "g")
	}
}

func TestViewCacheLRUBound(t *testing.T) {
	ws := NewWorkspace()
	ws.ConfigureViewCache(2)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("g%d", i)
		ws.Set(name, Object{Graph: testGraph(30, 100, int64(i))})
		if _, err := ws.DirectedView(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 2 {
		t.Fatalf("LRU bound 2 violated: %d entries", entries)
	}
}

// TestWarmViewAllocs pins the acceptance criterion: a warm view lookup must
// not rebuild anything — just a fingerprint format and a cache probe.
func TestWarmViewAllocs(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(200, 1000, 8)})
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ws.DirectedView("g"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("warm DirectedView does %v allocs/op; the O(V+E) build is not being skipped", allocs)
	}
}
