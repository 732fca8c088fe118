package algo

import (
	"math"
	"slices"
	"testing"

	"ringo/internal/graph"
)

func cycleGraph(n int) *graph.Directed {
	g := graph.NewDirected()
	for i := 0; i < n; i++ {
		g.AddEdge(int64(i), int64((i+1)%n))
	}
	return g
}

func starGraph(leaves int) *graph.Directed {
	// Edges point from leaves to the hub (node 0).
	g := graph.NewDirected()
	for i := 1; i <= leaves; i++ {
		g.AddEdge(int64(i), 0)
	}
	return g
}

func approxEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPageRankUniformOnCycle(t *testing.T) {
	g := cycleGraph(10)
	pr := PageRank(g, DefaultDamping, 50)
	for id, v := range pr {
		if !approxEq(v, 0.1, 1e-9) {
			t.Fatalf("node %d rank %v, want 0.1", id, v)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := starGraph(5) // hub is dangling
	pr := PageRank(g, DefaultDamping, 30)
	if s := SumScores(pr); !approxEq(s, 1, 1e-9) {
		t.Fatalf("PageRank sum = %v, want 1 (dangling mass lost?)", s)
	}
}

func TestPageRankHubHighest(t *testing.T) {
	g := starGraph(8)
	pr := PageRank(g, DefaultDamping, 30)
	top := TopK(pr, 1)
	if top[0].ID != 0 {
		t.Fatalf("top node = %d, want hub 0", top[0].ID)
	}
	for id, v := range pr {
		if id != 0 && v >= pr[0] {
			t.Fatalf("leaf %d rank %v >= hub rank %v", id, v, pr[0])
		}
	}
}

func TestPageRankSeqMatchesParallel(t *testing.T) {
	g := graph.NewDirected()
	// Irregular graph.
	edges := [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 3}, {6, 1}, {2, 6}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	p := PageRank(g, DefaultDamping, 25)
	s := PageRankSeq(g, DefaultDamping, 25)
	for id, v := range p {
		if !approxEq(v, s[id], 1e-12) {
			t.Fatalf("node %d: parallel %v != sequential %v", id, v, s[id])
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g := graph.NewDirected()
	if pr := PageRank(g, DefaultDamping, 10); len(pr) != 0 {
		t.Fatalf("PageRank on empty graph = %v", pr)
	}
}

func TestPageRankConvergesToStationary(t *testing.T) {
	// Two-node graph 1<->2: stationary distribution is (0.5, 0.5).
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	pr := PageRank(g, DefaultDamping, 60)
	if !approxEq(pr[1], 0.5, 1e-9) || !approxEq(pr[2], 0.5, 1e-9) {
		t.Fatalf("pr = %v", pr)
	}
}

func TestPersonalizedPageRank(t *testing.T) {
	g := cycleGraph(6)
	ppr := PersonalizedPageRank(g, []int64{0}, DefaultDamping, 40)
	if ppr == nil {
		t.Fatal("nil result for valid seed")
	}
	// The seed should outrank the node farthest from it.
	if ppr[0] <= ppr[3] {
		t.Fatalf("seed rank %v <= distant rank %v", ppr[0], ppr[3])
	}
	if s := SumScores(ppr); !approxEq(s, 1, 1e-6) {
		t.Fatalf("PPR sum = %v", s)
	}
	if got := PersonalizedPageRank(g, []int64{999}, DefaultDamping, 5); got != nil {
		t.Fatal("unknown seed should return nil")
	}
}

// TestPersonalizedPageRankAllSeedsMatchesPageRank pins the teleport path
// of the shared power-iteration kernel to its uniform default: seeding
// every node makes the teleport vector uniform, which is PageRank's own
// model.
func TestPersonalizedPageRankAllSeedsMatchesPageRank(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want := PageRankView(v, DefaultDamping, 20)
		got := PersonalizedPageRankView(v, v.IDs(), DefaultDamping, 20)
		if len(got) != len(want) {
			t.Fatalf("%s: %d personalized scores, %d PageRank scores", name, len(got), len(want))
		}
		for id, w := range want {
			if !approxEq(got[id], w, 1e-12) {
				t.Fatalf("%s: node %d personalized %v, PageRank %v", name, id, got[id], w)
			}
		}
	}
}

func TestHITSBipartite(t *testing.T) {
	// Hubs {1,2} point at authorities {10,11,12}.
	g := graph.NewDirected()
	for _, h := range []int64{1, 2} {
		for _, a := range []int64{10, 11, 12} {
			g.AddEdge(h, a)
		}
	}
	hs := HITS(g, 30)
	for _, h := range []int64{1, 2} {
		if hs.Hub[h] <= hs.Hub[10] {
			t.Fatalf("hub score of %d (%v) not above authority node (%v)", h, hs.Hub[h], hs.Hub[10])
		}
	}
	for _, a := range []int64{10, 11, 12} {
		if hs.Authority[a] <= hs.Authority[1] {
			t.Fatalf("authority score of %d (%v) not above hub node (%v)", a, hs.Authority[a], hs.Authority[1])
		}
	}
	// L2-normalized: authority vector norm 1 over the three authorities.
	var sq float64
	for _, v := range hs.Authority {
		sq += v * v
	}
	if !approxEq(sq, 1, 1e-9) {
		t.Fatalf("authority norm² = %v", sq)
	}
}

func TestTopK(t *testing.T) {
	scores := map[int64]float64{1: 0.5, 2: 0.9, 3: 0.9, 4: 0.1}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0].ID != 2 || top[1].ID != 3 || top[2].ID != 1 {
		t.Fatalf("TopK order = %v", top)
	}
	if got := TopK(scores, 100); len(got) != 4 {
		t.Fatalf("TopK overshoot = %d", len(got))
	}
}

// TestTopKBounds checks every k regime: negative and zero k return an
// empty result (negative k used to panic on the slice bound), k up to the
// map size returns that prefix of the full ranking, and k past it returns
// everything.
func TestTopKBounds(t *testing.T) {
	scores := map[int64]float64{1: 0.5, 2: 0.9, 3: 0.9, 4: 0.1, 5: 0.3}
	full := []Scored{{2, 0.9}, {3, 0.9}, {1, 0.5}, {5, 0.3}, {4, 0.1}}
	for _, c := range []struct{ k, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {len(scores), len(scores)}, {len(scores) + 5, len(scores)},
	} {
		got := TopK(scores, c.k)
		if got == nil || !slices.Equal(got, full[:c.want]) {
			t.Fatalf("TopK(k=%d) = %v, want %v", c.k, got, full[:c.want])
		}
	}
	if got := TopK(nil, -1); got == nil || len(got) != 0 {
		t.Fatalf("TopK(nil, -1) = %v", got)
	}
}
