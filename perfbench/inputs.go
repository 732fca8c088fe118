package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"ringo/internal/gen"
	"ringo/internal/table"
)

// Dataset sizes. They are fixed so that records of one seed compare across
// commits; the seed varies the contents, never the sizes.
const (
	postsQuestions = 100_000 // ~250k posts rows
	postsUsers     = 25_000
	rmatScale      = 16
	rmatEdges      = 200_000
	exploreTag     = "Java"
)

// selectTags are the tags serve_reads filters on, in rotation.
var selectTags = []string{"Java", "Python", "Go", "C++", "JavaScript", "SQL"}

// postsSchema is the load-verb schema of the posts file, in gen.SOSchema
// column order.
const postsSchema = "PostId:int Type:string UserId:int Tag:string AcceptedId:int ParentId:int Score:float"

// Dataset is one seed's generated input files plus the answers the
// benchmark expects, derived from the generated rows by code independent of
// the layers under test.
type Dataset struct {
	Seed      int64
	PostsPath string
	EdgesPath string

	PostsRows int
	TagRows   map[string]int // rows per tag
	JavaQ     int            // Java questions
	JavaA     int            // Java answers
	JavaQA    int            // accepted Java question/answer pairs
	ExpNodes  int            // expertise graph (asker -> answerer)
	ExpEdges  int

	EdgeRows int
	Src, Dst []int64
	Ref      GraphRef // the R-MAT graph
}

// GraphRef holds reference answers for one directed graph.
type GraphRef struct {
	Nodes, Edges int
	WCCCount     int
	WCCLargest   int
	Triangles    int64
	CoreNodes    int
	CoreEdges    int64
}

// writeDataset generates the seed's inputs into dir as headerless TSV and
// computes the expected answers.
func writeDataset(dir string, seed int64, withPosts, withTriangles bool) (*Dataset, error) {
	d := &Dataset{Seed: seed, TagRows: map[string]int{}}
	if withPosts {
		cfg := gen.DefaultSOConfig()
		cfg.Questions = postsQuestions
		cfg.Users = postsUsers
		cfg.Seed = seed
		posts, err := gen.StackOverflowPosts(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate posts: %w", err)
		}
		d.PostsPath = filepath.Join(dir, "posts.tsv")
		if err := posts.SaveTSVFile(d.PostsPath, false); err != nil {
			return nil, fmt.Errorf("write posts: %w", err)
		}
		d.refPosts(posts)
	}
	et := gen.RMATTable(rmatScale, rmatEdges, seed)
	d.EdgesPath = filepath.Join(dir, "edges.tsv")
	if err := et.SaveTSVFile(d.EdgesPath, false); err != nil {
		return nil, fmt.Errorf("write edges: %w", err)
	}
	d.EdgeRows = et.NumRows()
	d.Src, _ = et.IntCol("src")
	d.Dst, _ = et.IntCol("dst")
	d.Ref = refGraph(newRefGraph(d.Src, d.Dst), withTriangles)
	return d, nil
}

// refPosts derives the posts pipeline's expected counts row by row.
func (d *Dataset) refPosts(t *table.Table) {
	const (
		cPostID, cType, cUser, cTag, cAccepted = 0, 1, 2, 3, 4
	)
	d.PostsRows = t.NumRows()
	answerUser := map[int64]int64{} // Java answer PostId -> UserId
	type q struct{ user, accepted int64 }
	var qs []q
	for r := 0; r < t.NumRows(); r++ {
		tag := t.StrAt(cTag, r)
		d.TagRows[tag]++
		if tag != exploreTag {
			continue
		}
		if t.StrAt(cType, r) == "question" {
			d.JavaQ++
			qs = append(qs, q{t.IntAt(cUser, r), t.IntAt(cAccepted, r)})
		} else {
			d.JavaA++
			answerUser[t.IntAt(cPostID, r)] = t.IntAt(cUser, r)
		}
	}
	nodes := map[int64]bool{}
	edges := map[[2]int64]bool{}
	for _, x := range qs {
		a, ok := answerUser[x.accepted]
		if !ok {
			continue
		}
		d.JavaQA++
		nodes[x.user], nodes[a] = true, true
		edges[[2]int64{x.user, a}] = true
	}
	d.ExpNodes, d.ExpEdges = len(nodes), len(edges)
}

// refG is a plain adjacency-set graph the reference answers are computed
// on: directed edge set plus dense node numbering.
type refG struct {
	idx   map[int64]int32
	ids   []int64
	edges map[[2]int64]bool
}

func newRefGraph(src, dst []int64) *refG {
	g := &refG{idx: map[int64]int32{}, edges: make(map[[2]int64]bool, len(src))}
	for i := range src {
		g.addEdge(src[i], dst[i])
	}
	return g
}

func (g *refG) node(id int64) int32 {
	if i, ok := g.idx[id]; ok {
		return i
	}
	i := int32(len(g.ids))
	g.idx[id] = i
	g.ids = append(g.ids, id)
	return i
}

// addEdge adds s -> d, creating missing endpoints; reports whether new.
func (g *refG) addEdge(s, d int64) bool {
	g.node(s)
	g.node(d)
	k := [2]int64{s, d}
	if g.edges[k] {
		return false
	}
	g.edges[k] = true
	return true
}

// delEdge removes s -> d (nodes stay); reports whether it existed.
func (g *refG) delEdge(s, d int64) bool {
	k := [2]int64{s, d}
	if !g.edges[k] {
		return false
	}
	delete(g.edges, k)
	return true
}

// undirected returns sorted neighbour lists of the undirected projection
// (self-loops dropped) and, per node, whether it has a self-loop.
func (g *refG) undirected() (adj [][]int32, loop []bool) {
	n := len(g.ids)
	adj = make([][]int32, n)
	loop = make([]bool, n)
	for e := range g.edges {
		a, b := g.idx[e[0]], g.idx[e[1]]
		if a == b {
			loop[a] = true
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for i := range adj {
		l := adj[i]
		sort.Slice(l, func(x, y int) bool { return l[x] < l[y] })
		adj[i] = uniq(l)
	}
	return adj, loop
}

func uniq(l []int32) []int32 {
	out := l[:0]
	for i, x := range l {
		if i == 0 || x != l[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// refGraph computes every reference answer for g. Triangle counting is the
// slowest reference and is skipped when no workload step asks for it.
func refGraph(g *refG, withTriangles bool) GraphRef {
	adj, loop := g.undirected()
	r := GraphRef{Nodes: len(g.ids), Edges: len(g.edges)}
	r.WCCCount, r.WCCLargest = refWCC(adj)
	r.CoreNodes, r.CoreEdges = refKCore(adj, loop, 3)
	if withTriangles {
		r.Triangles = refTriangles(adj)
	}
	return r
}

// refWCC counts weakly connected components and the largest one's size by
// union-find over the undirected projection.
func refWCC(adj [][]int32) (count, largest int) {
	parent := make([]int32, len(adj))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u, l := range adj {
		for _, v := range l {
			a, b := find(int32(u)), find(v)
			if a != b {
				parent[a] = b
			}
		}
	}
	size := map[int32]int{}
	for u := range adj {
		size[find(int32(u))]++
	}
	for _, s := range size {
		largest = max(largest, s)
	}
	return len(size), largest
}

// refKCore peels nodes of degree < k (self-loops ignored) until none is
// left, then counts the surviving nodes and edges, a self-loop on a
// surviving node counting as one edge.
func refKCore(adj [][]int32, loop []bool, k int) (nodes int, edges int64) {
	n := len(adj)
	deg := make([]int, n)
	alive := make([]bool, n)
	var queue []int32
	for u := range adj {
		deg[u] = len(adj[u])
		alive[u] = true
		if deg[u] < k {
			alive[u] = false
			queue = append(queue, int32(u))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range adj[u] {
			if !alive[v] {
				continue
			}
			deg[v]--
			if deg[v] < k {
				alive[v] = false
				queue = append(queue, v)
			}
		}
	}
	for u := range adj {
		if !alive[u] {
			continue
		}
		nodes++
		if loop[u] {
			edges++
		}
		for _, v := range adj[u] {
			if alive[v] && v > int32(u) {
				edges++
			}
		}
	}
	return nodes, edges
}

// refTriangles counts triangles of the undirected projection: each triangle
// is found once, at its lowest-numbered vertex, by merging sorted lists.
func refTriangles(adj [][]int32) int64 {
	var t int64
	for u, lu := range adj {
		for _, v := range lu {
			if v <= int32(u) {
				continue
			}
			lv := adj[v]
			i, j := 0, 0
			for i < len(lu) && j < len(lv) {
				a, b := lu[i], lv[j]
				switch {
				case a < b:
					i++
				case a > b:
					j++
				default:
					if a > v {
						t++
					}
					i++
					j++
				}
			}
		}
	}
	return t
}

// Mutation is one step of update_query's edge stream.
type Mutation struct {
	Add  bool
	S, D int64
}

// Cmd renders the mutation as a command on graph g.
func (m Mutation) Cmd(g string) string {
	verb := "deledge"
	if m.Add {
		verb = "addedge"
	}
	return fmt.Sprintf("%s %s %d %d", verb, g, m.S, m.D)
}

// mutationStream derives n add/delete pairs from the seed: each pair adds
// an edge not yet present (one in four touches a brand-new node) and
// deletes a present edge of the original graph. Every step changes the
// graph, so every pagerank answer reflects a new state.
func mutationStream(d *Dataset, n int) []Mutation {
	rng := rand.New(rand.NewSource(d.Seed ^ 0x5eed))
	present := make(map[[2]int64]bool, len(d.Src))
	var orig [][2]int64
	for i := range d.Src {
		k := [2]int64{d.Src[i], d.Dst[i]}
		if !present[k] {
			present[k] = true
			orig = append(orig, k)
		}
	}
	rng.Shuffle(len(orig), func(i, j int) { orig[i], orig[j] = orig[j], orig[i] })
	span := int64(1) << rmatScale
	next := span
	out := make([]Mutation, 0, 2*n)
	for i := 0; i < n && i < len(orig); i++ {
		for {
			s, t := rng.Int63n(span), rng.Int63n(span)
			if i%4 == 0 {
				t = next
				next++
			}
			k := [2]int64{s, t}
			if s == t || present[k] {
				continue
			}
			present[k] = true
			out = append(out, Mutation{Add: true, S: s, D: t})
			break
		}
		del := orig[i]
		delete(present, del)
		out = append(out, Mutation{S: del[0], D: del[1]})
	}
	return out
}

// dynRef is the reference graph update_query's answers are checked
// against, maintained under the mutation stream: the directed edge set
// plus an undirected projection with per-pair multiplicities.
type dynRef struct {
	g    *refG
	adj  [][]int32
	loop []bool
	mult map[[2]int32]int
}

func newDynRef(src, dst []int64) *dynRef {
	r := &dynRef{g: newRefGraph(src, dst), mult: map[[2]int32]int{}}
	r.adj, r.loop = r.g.undirected()
	for e := range r.g.edges {
		r.mult[r.pair(e)]++
	}
	return r
}

func (r *dynRef) numNodes() int { return len(r.g.ids) }

func (r *dynRef) pair(e [2]int64) [2]int32 {
	a, b := r.g.idx[e[0]], r.g.idx[e[1]]
	return [2]int32{min(a, b), max(a, b)}
}

// apply performs one mutation on the reference.
func (r *dynRef) apply(m Mutation) {
	e := [2]int64{m.S, m.D}
	if m.Add {
		if !r.g.addEdge(m.S, m.D) {
			return
		}
		for len(r.adj) < len(r.g.ids) {
			r.adj = append(r.adj, nil)
			r.loop = append(r.loop, false)
		}
		p := r.pair(e)
		r.mult[p]++
		if r.mult[p] > 1 {
			return
		}
		if p[0] == p[1] {
			r.loop[p[0]] = true
			return
		}
		r.adj[p[0]] = append(r.adj[p[0]], p[1])
		r.adj[p[1]] = append(r.adj[p[1]], p[0])
		return
	}
	if !r.g.delEdge(m.S, m.D) {
		return
	}
	p := r.pair(e)
	r.mult[p]--
	if r.mult[p] > 0 {
		return
	}
	delete(r.mult, p)
	if p[0] == p[1] {
		r.loop[p[0]] = false
		return
	}
	r.adj[p[0]] = without(r.adj[p[0]], p[1])
	r.adj[p[1]] = without(r.adj[p[1]], p[0])
}

func without(l []int32, x int32) []int32 {
	for i, y := range l {
		if y == x {
			l[i] = l[len(l)-1]
			return l[:len(l)-1]
		}
	}
	return l
}

// answers returns the wcc and 3-core answers of the current state.
func (r *dynRef) answers() GraphRef {
	out := GraphRef{Nodes: len(r.g.ids), Edges: len(r.g.edges)}
	out.WCCCount, out.WCCLargest = refWCC(r.adj)
	out.CoreNodes, out.CoreEdges = refKCore(r.adj, r.loop, 3)
	return out
}
