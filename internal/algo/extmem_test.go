package algo

import (
	"maps"
	"path/filepath"
	"testing"

	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// Mapped-vs-heap equivalence: a mapped RNGM graph is an ordinary
// graph.View, so the View kernels run over it unchanged and must give
// exactly the heap view's answers.

// mapView round-trips v through an RNGM file and returns the mapped view,
// so the equivalence tests exercise the real storage tier (binary-searched
// Index, aliased arenas), not just a second heap view.
func mapView(t testing.TB, v *graph.View) *graph.View {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rngm")
	if err := extmem.SaveMapped(path, v); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}
	mg, err := extmem.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg.View()
}

// extTestGraphs yields the awkward shapes the equality contract names:
// random graphs, isolated nodes, tombstoned (deleted) slots, and a
// multi-component graph whose components sit far apart in id space.
func extTestGraphs() map[string]*graph.Directed {
	gs := map[string]*graph.Directed{
		"gnm":  gen.GNM(500, 4000, 3),
		"ring": gen.Ring(257),
		"star": gen.Star(300),
	}
	withIso := gen.GNM(300, 1500, 5)
	for id := int64(300); id < 320; id++ {
		withIso.AddNode(id)
	}
	gs["isolated"] = withIso

	tomb := gen.GNM(400, 2500, 9)
	for id := int64(0); id < 120; id += 2 {
		tomb.DelNode(id)
	}
	gs["tombstoned"] = tomb

	two := gen.GNM(200, 900, 13)
	far := gen.Ring(100)
	far.ForEdges(func(src, dst int64) { two.AddEdge(src+10000, dst+10000) })
	gs["two-components"] = two
	return gs
}

func TestPageRankViewMappedMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want := PageRankView(v, DefaultDamping, 10)
		got := PageRankView(mapView(t, v), DefaultDamping, 10)
		if !maps.Equal(want, got) {
			t.Errorf("%s: mapped PageRankView scores differ from the heap view's (want %d scores, got %d)", name, len(want), len(got))
		}
	}
}

func TestWCCViewMappedMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want := WCCView(v)
		got := WCCView(mapView(t, v))
		if want.Count != got.Count || want.MaxSize != got.MaxSize || !maps.Equal(want.Label, got.Label) {
			t.Errorf("%s: mapped WCCView labeling differs from the heap view's (count %d vs %d, max %d vs %d)",
				name, want.Count, got.Count, want.MaxSize, got.MaxSize)
		}
	}
}

func TestBFSViewMappedMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		if v.NumNodes() == 0 {
			continue
		}
		mv := mapView(t, v)
		srcs := []int64{v.ID(0), v.ID(int32(v.NumNodes() / 2)), v.ID(int32(v.NumNodes() - 1))}
		for _, src := range srcs {
			for _, dir := range []EdgeDir{Out, In, Both} {
				want := BFSView(v, src, dir)
				got := BFSView(mv, src, dir)
				if !maps.Equal(want, got) {
					t.Errorf("%s: mapped BFSView(src=%d, dir=%d) differs from the heap view's (%d vs %d reached)",
						name, src, dir, len(want), len(got))
				}
			}
		}
	}
}

func TestBFSViewMappedUnknownSource(t *testing.T) {
	mv := mapView(t, graph.BuildView(gen.GNM(50, 200, 1)))
	if got := BFSView(mv, 1<<40, Out); got != nil {
		t.Fatalf("BFSView from absent source = %v, want nil", got)
	}
}

// TestTrianglesViewMappedMatchesHeap runs the orientation-blind path a
// mapped directed image takes — ProjectUView — against the heap UView of
// the undirected graph.
func TestTrianglesViewMappedMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		want := TrianglesView(graph.BuildUView(graph.AsUndirected(g)))
		got := TrianglesView(graph.ProjectUView(mapView(t, graph.BuildView(g))))
		if want != got {
			t.Errorf("%s: mapped triangle count %d, heap UView %d", name, got, want)
		}
	}
}

// BenchmarkPageRankMapped runs PageRankView over a mapped RNGM image — the
// number to put against in-heap PageRank runs and the CI smoke that keeps
// the mapped pipeline compiling end to end.
func BenchmarkPageRankMapped(b *testing.B) {
	g := gen.GNM(1<<15, 1<<18, 42)
	mv := mapView(b, graph.BuildView(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRankView(mv, DefaultDamping, 5)
	}
}
