package ringo_test

import (
	"testing"

	"ringo"
)

// TestStackOverflowExpertDemo runs the paper's §4.1 demo end to end on the
// synthetic posts table: load posts, select the Java ones, split questions
// from answers, join questions with their accepted answers, build the
// asker→answerer graph, run PageRank, and produce the experts table.
func TestStackOverflowExpertDemo(t *testing.T) {
	posts, err := ringo.GenStackOverflowPosts(ringo.DefaultSOConfig())
	if err != nil {
		t.Fatal(err)
	}
	jp, err := ringo.Select(posts, "Tag", ringo.EQ, "Java")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ringo.Select(jp, "Type", ringo.EQ, "question")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ringo.Select(jp, "Type", ringo.EQ, "answer")
	if err != nil {
		t.Fatal(err)
	}
	qa, err := ringo.Join(q, a, "AcceptedId", "PostId")
	if err != nil {
		t.Fatal(err)
	}
	if qa.NumRows() == 0 {
		t.Fatal("no accepted Java answers; demo degenerate")
	}
	// Joining posts with posts collides every column: UserId-1 is the
	// asker, UserId-2 the accepted answerer.
	g, err := ringo.ToGraph(qa, "UserId-1", "UserId-2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("empty expert graph")
	}
	pr := ringo.GetPageRank(g)
	experts, err := ringo.TableFromMap(pr, "User", "Scr")
	if err != nil {
		t.Fatal(err)
	}
	if experts.NumRows() != g.NumNodes() {
		t.Fatalf("experts table %d rows for %d nodes", experts.NumRows(), g.NumNodes())
	}
	// Scores descending; the top expert should have answered at least one
	// accepted Java answer (i.e. have an in-edge).
	scr, err := experts.FloatCol("Scr")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(scr); i++ {
		if scr[i-1] < scr[i] {
			t.Fatal("experts table not sorted by score")
		}
	}
	users, _ := experts.IntCol("User")
	if g.InDeg(users[0]) == 0 {
		t.Fatalf("top expert %d has no accepted answers", users[0])
	}
}

// TestFigure2Workflow exercises the full analytics loop of Figure 2:
// tables -> graph construction -> graph analytics -> results back into
// tables.
func TestFigure2Workflow(t *testing.T) {
	edges := ringo.GenRMATTable(10, 4000, 5)
	g, err := ringo.ToGraph(edges, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	// Analytics.
	pr := ringo.GetPageRank(g)
	wcc := ringo.GetWCC(g)
	tri := ringo.CountTriangles(ringo.AsUndirected(g))
	if tri < 0 {
		t.Fatal("negative triangles")
	}
	// Results back to tables and joined with node table.
	prTable, err := ringo.TableFromMap(pr, "node", "rank")
	if err != nil {
		t.Fatal(err)
	}
	compTable, err := ringo.TableFromIntMap(wcc.Label, "node", "comp")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := ringo.Join(prTable, compTable, "node", "node")
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() != g.NumNodes() {
		t.Fatalf("joined analytics table %d rows for %d nodes", joined.NumRows(), g.NumNodes())
	}
	// Aggregate rank mass per component — table analytics on graph results.
	byComp, err := joined.Aggregate([]string{"comp"}, ringo.Sum, "rank", "mass")
	if err != nil {
		t.Fatal(err)
	}
	if byComp.NumRows() != wcc.Count {
		t.Fatalf("aggregated %d components, want %d", byComp.NumRows(), wcc.Count)
	}
	mass, _ := byComp.FloatCol("mass")
	var total float64
	for _, m := range mass {
		total += m
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("total rank mass = %v", total)
	}
}

func TestRoundTripThroughEdgeListFile(t *testing.T) {
	g := ringo.GenGNM(50, 200, 9)
	path := t.TempDir() + "/g.tsv"
	if err := ringo.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ringo.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("edge list round trip mismatch")
	}
	// The parallel loader must read the same file into the same graph.
	parG, err := ringo.LoadEdgeListParallel(path)
	if err != nil {
		t.Fatal(err)
	}
	if parG.NumNodes() != g.NumNodes() || parG.NumEdges() != g.NumEdges() {
		t.Fatal("parallel edge list load mismatch")
	}
}

func TestFacadeBulkBuild(t *testing.T) {
	edges := [][2]int64{{1, 2}, {2, 3}, {3, 1}, {1, 2}, {4, 4}}
	g, err := ringo.BuildDirected(edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 { // duplicate collapsed, self-loop kept
		t.Fatalf("BuildDirected: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	u, err := ringo.BuildUndirected(edges)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 4 || u.NumEdges() != 4 {
		t.Fatalf("BuildUndirected: %d nodes, %d edges", u.NumNodes(), u.NumEdges())
	}
}

func TestEdgeListRoundTripKeepsIsolatedNodes(t *testing.T) {
	g := ringo.NewGraph()
	g.AddEdge(1, 2)
	g.AddNode(99)
	path := t.TempDir() + "/iso.tsv"
	if err := ringo.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(string) (*ringo.Graph, error){
		ringo.LoadEdgeList, ringo.LoadEdgeListParallel, ringo.LoadGraphAuto,
	} {
		back, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !back.HasNode(99) || back.NumNodes() != 3 {
			t.Fatal("text round trip lost the isolated node")
		}
	}
}

func TestFacadeAlgorithmSurface(t *testing.T) {
	g := ringo.GenGNM(60, 400, 4)
	u := ringo.AsUndirected(g)

	if got := ringo.PageRankSeq(g, 0.85, 5); len(got) != 60 {
		t.Fatal("PageRankSeq size")
	}
	if got := ringo.PersonalizedPageRank(g, []int64{1}, 0.85, 5); len(got) != 60 {
		t.Fatal("PPR size")
	}
	hits := ringo.GetHits(g, 10)
	if len(hits.Hub) != 60 || len(hits.Authority) != 60 {
		t.Fatal("HITS size")
	}
	if ringo.CountTriangles(u) != ringo.CountTrianglesSeq(u) {
		t.Fatal("triangle variants disagree")
	}
	if cc := ringo.GetClusteringCoefficient(u); cc < 0 || cc > 1 {
		t.Fatalf("clustering coefficient %v", cc)
	}
	if len(ringo.NodeTriangles(u)) != 60 {
		t.Fatal("NodeTriangles size")
	}
	src := g.Nodes()[0]
	bfs := ringo.GetBFS(g, src, ringo.OutEdges)
	sssp := ringo.GetSSSP(g, src)
	if len(bfs) != len(sssp) {
		t.Fatal("BFS and SSSP disagree")
	}
	if d := ringo.GetShortestPath(g, src, src); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if dj := ringo.Dijkstra(g, src, func(a, b int64) float64 { return 1 }); len(dj) != len(bfs) {
		t.Fatal("Dijkstra reach differs from BFS")
	}
	wcc := ringo.GetWCC(g)
	scc := ringo.GetSCC(g)
	if wcc.Count > scc.Count {
		t.Fatal("WCC cannot have more components than SCC")
	}
	cores := ringo.GetCoreNumbers(u)
	if len(cores) != 60 {
		t.Fatal("core numbers size")
	}
	k2 := ringo.GetKCore(u, 2)
	k2d := ringo.GetKCoreDirected(g, 2)
	if k2.NumNodes() != k2d.NumNodes() {
		t.Fatal("KCore variants disagree")
	}
	if ringo.GetOutDegreeStats(g).Mean <= 0 || ringo.GetInDegreeStats(g).Mean <= 0 {
		t.Fatal("degree stats")
	}
	if len(ringo.GetDegreeHistogram(g)) == 0 {
		t.Fatal("histogram empty")
	}
	if len(ringo.GetDegreeCentrality(u)) != 60 {
		t.Fatal("degree centrality size")
	}
	if ringo.GetCloseness(g, src) <= 0 {
		t.Fatal("closeness of connected node should be positive")
	}
	if len(ringo.GetApproxBetweenness(g, 10, 1)) != 60 {
		t.Fatal("betweenness size")
	}
	if ringo.GetEccentricity(g, src) <= 0 {
		t.Fatal("eccentricity")
	}
	if ringo.GetApproxDiameter(g, 5, 1) <= 0 {
		t.Fatal("diameter")
	}
	comm := ringo.GetCommunities(u, 10, 1)
	if len(comm) != 60 {
		t.Fatal("communities size")
	}
	_ = ringo.GetModularity(u, comm)
	if walk := ringo.GetRandomWalk(g, src, 10, 3); len(walk) == 0 {
		t.Fatal("random walk empty")
	}
	if top := ringo.TopK(ringo.GetPageRank(g), 5); len(top) != 5 {
		t.Fatal("TopK size")
	}
	if top := ringo.TopK(ringo.GetPageRank(g), -1); len(top) != 0 {
		t.Fatal("TopK with negative k is not empty")
	}
	if v := ringo.BuildView(g); v.NumEdges() != g.NumEdges() {
		t.Fatal("view edge count")
	}
}

func TestNaiveToGraphMatches(t *testing.T) {
	tbl := ringo.GenRMATTable(9, 2000, 8)
	fast, err := ringo.ToGraph(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := ringo.NaiveToGraph(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if fast.NumNodes() != naive.NumNodes() || fast.NumEdges() != naive.NumEdges() {
		t.Fatal("conversion variants disagree")
	}
}

func TestTableVerbsSurface(t *testing.T) {
	tbl, err := ringo.NewTable(ringo.Schema{
		{Name: "g", Type: ringo.IntCol},
		{Name: "t", Type: ringo.FloatCol},
		{Name: "who", Type: ringo.StringCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.AppendRow(i%2, float64(i), "u"); err != nil {
			t.Fatal(err)
		}
	}
	nk, err := ringo.NextK(tbl, "g", "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if nk.NumRows() != 8 {
		t.Fatalf("NextK rows = %d", nk.NumRows())
	}
	sj, err := ringo.SimJoinTables(tbl, tbl, []string{"t"}, []string{"t"}, 0.5, ringo.L2)
	if err != nil {
		t.Fatal(err)
	}
	if sj.NumRows() != 10 { // only exact self-matches within 0.5
		t.Fatalf("SimJoin rows = %d", sj.NumRows())
	}
}
