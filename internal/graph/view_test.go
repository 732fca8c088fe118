package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomDirected builds a directed graph with AddEdge (so slot order differs
// from id order) and a few node deletions (so the slot space has tombstones).
func randomDirected(t *testing.T, n, m int, seed int64) *Directed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewDirected()
	for i := 0; i < m; i++ {
		g.AddEdge(int64(rng.Intn(n)), int64(rng.Intn(n)))
	}
	// Delete a handful of nodes to exercise tombstoned slots.
	for i := 0; i < n/10; i++ {
		g.DelNode(int64(rng.Intn(n)))
	}
	return g
}

func TestBuildViewMatchesDirected(t *testing.T) {
	g := randomDirected(t, 200, 800, 1)
	v := BuildView(g)
	if v.NumNodes() != g.NumNodes() {
		t.Fatalf("view has %d nodes, graph %d", v.NumNodes(), g.NumNodes())
	}
	if v.NumEdges() != g.NumEdges() {
		t.Fatalf("view has %d edges, graph %d", v.NumEdges(), g.NumEdges())
	}
	if !slices.IsSorted(v.IDs()) {
		t.Fatalf("view ids not ascending")
	}
	for i, id := range v.IDs() {
		di, ok := v.Index(id)
		if !ok || di != int32(i) {
			t.Fatalf("Index(%d) = %d,%v; want %d", id, di, ok, i)
		}
		wantOut := g.OutNeighbors(id)
		gotOut := v.Out(int32(i))
		if len(wantOut) != len(gotOut) {
			t.Fatalf("node %d: out degree %d vs %d", id, len(gotOut), len(wantOut))
		}
		if !slices.IsSorted(gotOut) {
			t.Fatalf("node %d: out vector not sorted", id)
		}
		for j, di := range gotOut {
			if v.ID(di) != wantOut[j] {
				t.Fatalf("node %d out[%d]: got id %d want %d", id, j, v.ID(di), wantOut[j])
			}
		}
		wantIn := g.InNeighbors(id)
		gotIn := v.In(int32(i))
		if len(wantIn) != len(gotIn) {
			t.Fatalf("node %d: in degree %d vs %d", id, len(gotIn), len(wantIn))
		}
		for j, di := range gotIn {
			if v.ID(di) != wantIn[j] {
				t.Fatalf("node %d in[%d]: got id %d want %d", id, j, v.ID(di), wantIn[j])
			}
		}
		if v.OutDeg(int32(i)) != len(wantOut) || v.InDeg(int32(i)) != len(wantIn) {
			t.Fatalf("node %d: degree accessors disagree with vectors", id)
		}
	}
}

func TestBuildViewEmptyAndLoops(t *testing.T) {
	v := BuildView(NewDirected())
	if v.NumNodes() != 0 || v.NumEdges() != 0 {
		t.Fatalf("empty graph view not empty")
	}
	g := NewDirected()
	g.AddEdge(5, 5)
	g.AddEdge(5, 2)
	v = BuildView(g)
	if v.NumEdges() != 2 {
		t.Fatalf("self-loop lost: %d edges", v.NumEdges())
	}
	i, _ := v.Index(5)
	if _, found := slices.BinarySearch(v.Out(i), i); !found {
		t.Fatalf("self-loop not in out vector")
	}
}

func TestBuildUViewMatchesUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewUndirected()
	for i := 0; i < 800; i++ {
		g.AddEdge(int64(rng.Intn(200)), int64(rng.Intn(200)))
	}
	for i := 0; i < 20; i++ {
		g.DelNode(int64(rng.Intn(200)))
	}
	v := BuildUView(g)
	if v.NumNodes() != g.NumNodes() {
		t.Fatalf("uview has %d nodes, graph %d", v.NumNodes(), g.NumNodes())
	}
	if v.NumEdges() != g.NumEdges() {
		t.Fatalf("uview has %d edges, graph %d", v.NumEdges(), g.NumEdges())
	}
	for i, id := range v.IDs() {
		want := g.Neighbors(id)
		got := v.Adj(int32(i))
		if len(want) != len(got) {
			t.Fatalf("node %d: degree %d vs %d", id, len(got), len(want))
		}
		if !slices.IsSorted(got) {
			t.Fatalf("node %d: adjacency not sorted", id)
		}
		for j, di := range got {
			if v.ID(di) != want[j] {
				t.Fatalf("node %d adj[%d]: got id %d want %d", id, j, v.ID(di), want[j])
			}
		}
	}
}

func BenchmarkBuildView(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := NewDirected()
	for i := 0; i < 200_000; i++ {
		g.AddEdge(int64(rng.Intn(50_000)), int64(rng.Intn(50_000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildView(g)
	}
}

// The TestCSR* tests below pin the View — the one CSR representation —
// on a small fixed graph and on arbitrary ones.

func sampleDirected() *Directed {
	g := NewDirected()
	g.AddEdge(10, 20)
	g.AddEdge(10, 30)
	g.AddEdge(20, 30)
	g.AddEdge(30, 10)
	return g
}

// viewHasEdge reports whether src->dst is an edge of v.
func viewHasEdge(v *View, src, dst int64) bool {
	s, ok := v.Index(src)
	if !ok {
		return false
	}
	d, ok := v.Index(dst)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(v.Out(s), d)
	return found
}

// validView runs v's arrays through ViewFromArrays' structural checks.
func validView(v *View) error {
	ids, outOff, inOff, out, in := v.ViewParts()
	_, err := ViewFromArrays(ids, outOff, inOff, out, in, nil)
	return err
}

func TestCSRBuildViewDims(t *testing.T) {
	g := sampleDirected()
	v := BuildView(g)
	if err := validView(v); err != nil {
		t.Fatal(err)
	}
	if v.NumNodes() != 3 || v.NumEdges() != 4 {
		t.Fatalf("view dims = (%d,%d)", v.NumNodes(), v.NumEdges())
	}
	i, ok := v.Index(10)
	if !ok {
		t.Fatal("Index(10) missing")
	}
	if v.OutDeg(i) != 2 || v.InDeg(i) != 1 {
		t.Fatalf("node 10 degrees = (%d,%d)", v.OutDeg(i), v.InDeg(i))
	}
	g.ForEdges(func(src, dst int64) {
		if !viewHasEdge(v, src, dst) {
			t.Fatalf("view lost edge %d->%d", src, dst)
		}
	})
	if viewHasEdge(v, 20, 10) || viewHasEdge(v, 99, 10) {
		t.Fatal("view invented an edge")
	}
}

func TestCSRNeighborsDense(t *testing.T) {
	v := BuildView(sampleDirected())
	i, _ := v.Index(10)
	for _, d := range v.Out(i) {
		if id := v.ID(d); id != 20 && id != 30 {
			t.Fatalf("unexpected neighbor %d", id)
		}
	}
	for _, s := range v.In(i) {
		if v.ID(s) != 30 {
			t.Fatalf("unexpected in-neighbor %d", v.ID(s))
		}
	}
}

// TestCSRDelEdge deletes one edge from a CSR snapshot the way the paper's
// §2.2 ablation does: a one-delta PatchView, which rewrites the arrays.
func TestCSRDelEdge(t *testing.T) {
	g := sampleDirected()
	v := BuildView(g)
	g.DelEdge(10, 20)
	p := PatchView(v, g.HasNode, g.HasEdge, []Delta{{Op: DeltaDelEdge, Src: 10, Dst: 20}})
	if err := validView(p); err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 3 || viewHasEdge(p, 10, 20) {
		t.Fatalf("after delete: %d edges", p.NumEdges())
	}
	for _, e := range [][2]int64{{10, 30}, {20, 30}, {30, 10}} {
		if !viewHasEdge(p, e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
	if !viewHasEdge(v, 10, 20) {
		t.Fatal("patching modified the base view")
	}
}

func TestCSRBytesSmallerThanDynamicGraph(t *testing.T) {
	g := NewDirected()
	for i := int64(0); i < 2000; i++ {
		g.AddEdge(i, (i*7)%2000)
		g.AddEdge(i, (i*13)%2000)
	}
	if v := BuildView(g); v.Bytes() >= g.Bytes() {
		t.Fatalf("view (%d bytes) not smaller than dynamic graph (%d bytes)", v.Bytes(), g.Bytes())
	}
}

// Property: the view round-trips the edge set of any directed graph.
func TestCSRRoundTripProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := NewDirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%16), int64(e[1]%16))
		}
		v := BuildView(g)
		if validView(v) != nil {
			return false
		}
		if v.NumEdges() != g.NumEdges() || v.NumNodes() != g.NumNodes() {
			return false
		}
		ok := true
		g.ForEdges(func(src, dst int64) {
			if !viewHasEdge(v, src, dst) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
