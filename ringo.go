package ringo

import (
	"io"

	"ringo/internal/algo"
	"ringo/internal/bitmap"
	"ringo/internal/conv"
	"ringo/internal/core"
	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/obs"
	"ringo/internal/repl"
	"ringo/internal/server"
	"ringo/internal/table"
)

// Interactive engine and analytics server, re-exported from internal/repl
// and internal/server.
type (
	// Workspace is a named-object session store with provenance and
	// versioned fingerprints; safe for concurrent use.
	Workspace = core.Workspace
	// Object is a workspace value: a table, graph or score map.
	Object = core.Object
	// Engine evaluates the shell command language against a Workspace,
	// returning structured Results.
	Engine = repl.Engine
	// Result is the structured outcome of one evaluated command.
	Result = repl.Result
	// ResultCache is the pluggable cache interface consumed by
	// Engine.SetCache.
	ResultCache = repl.Cache
	// CachedResult is the cacheable payload of an analytics command.
	CachedResult = repl.CachedResult
	// Server is the multi-session analytics HTTP service.
	Server = server.Server
	// ServerConfig sizes a Server (cache entries, job workers, session cap).
	ServerConfig = server.Config
	// Script is a parsed command batch: one verb per line, # comments,
	// @echo/@time/@continue directives (see docs/COMMANDS.md).
	Script = repl.Script
	// ScriptStep is one executable command of a Script with its source line.
	ScriptStep = repl.Step
	// ScriptResult aggregates a batch run: per-step results, errors and
	// wall times plus ok/failed/skipped accounting.
	ScriptResult = repl.ScriptResult
	// ScriptStepResult is one executed step's outcome inside a ScriptResult.
	ScriptStepResult = repl.StepResult
	// MetricsRegistry is the dependency-free metric registry behind
	// GET /metrics and the stats verb: atomic counters and gauges, log₂
	// latency histograms with percentile extraction, Prometheus text
	// exposition via WritePrometheus (see docs/OBSERVABILITY.md).
	MetricsRegistry = obs.Registry
	// MetricLabel is one key=value label on a metric series.
	MetricLabel = obs.Label
	// Telemetry wires an Engine into a host's observability: a shared
	// registry for per-verb metrics, a slog.Logger and threshold for the
	// slow-query log, and a session id to label its records.
	Telemetry = repl.Telemetry
)

// NewWorkspace returns an empty session workspace.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// NewEngine returns a command evaluator over ws (a fresh workspace if nil).
func NewEngine(ws *Workspace) *Engine { return repl.New(ws) }

// NewServer returns a multi-session analytics server ready to serve HTTP;
// Close it when done.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// ParseScript parses script text (one verb per line, # comments,
// @echo/@time/@continue directives) into an executable Script.
func ParseScript(src string) (*Script, error) { return repl.ParseScript(src) }

// RunScript parses and executes script text against an engine's workspace
// in one batch — the library form of the shell's `source` verb and the
// server's POST /sessions/{id}/script. The error reports parse failures
// only; a failing step is recorded on its ScriptResult step (summarized by
// ScriptResult.Err) with every earlier step's effect kept. See
// ExampleRunScript.
func RunScript(e *Engine, src string) (*ScriptResult, error) {
	s, err := repl.ParseScript(src)
	if err != nil {
		return nil, err
	}
	return e.EvalScript(s), nil
}

// RenderScript writes a script run as the classic shell text, honoring the
// script's @echo and @time directives.
func RenderScript(w io.Writer, sr *ScriptResult) { repl.RenderScript(w, sr) }

// NewMetricsRegistry returns an empty metric registry. Servers construct
// their own (reachable via Server.Metrics); standalone embedders can share
// one across engines through Telemetry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricL builds one metric series label.
func MetricL(key, value string) MetricLabel { return obs.L(key, value) }

// Core data types, re-exported from the engine.
type (
	// Table is Ringo's column-store relational table (§2.3).
	Table = table.Table
	// Schema describes a table's columns.
	Schema = table.Schema
	// Column is one schema entry.
	Column = table.Column
	// ColType is a column type (IntCol, FloatCol, StringCol).
	ColType = table.Type
	// CmpOp is a Select comparison operator.
	CmpOp = table.CmpOp
	// AggOp is a Group/Aggregate operator.
	AggOp = table.AggOp
	// Metric is a SimJoin distance metric.
	Metric = table.Metric
	// Bitmap is the dense selection vector the vectorized execution
	// backend produces: one bit per row, combined wordwise by the boolean
	// connectives, consumed by Table.SelectBitmap.
	Bitmap = bitmap.Bitmap
	// EqIndex is a per-column equality bitmap index: one selection bitmap
	// per distinct value of a low-cardinality int or string column.
	// Workspaces build and cache them by table fingerprint
	// (Workspace.TableEqIndex); BuildEqIndex constructs one standalone.
	EqIndex = table.EqIndex

	// Graph is the dynamic directed graph (§2.2): a hash table of nodes
	// with sorted in/out adjacency vectors.
	Graph = graph.Directed
	// UGraph is the undirected variant.
	UGraph = graph.Undirected
	// Network is a directed multigraph with typed node/edge attributes.
	Network = graph.Network
	// View is the flat CSR snapshot of a directed graph that algorithms
	// run over; build one with BuildView or fetch a cached one with
	// Workspace.DirectedView.
	View = graph.View
	// UView is the undirected CSR snapshot (Workspace.UndirectedView).
	UView = graph.UView
	// ViewCache is the fingerprint-keyed CSR view cache workspaces carry.
	ViewCache = core.ViewCache

	// Components is a connected-component decomposition result.
	Components = algo.Components
	// HITSScores holds hub and authority score maps.
	HITSScores = algo.HITSScores
	// Scored pairs a node with a score in ranked results.
	Scored = algo.Scored
	// DegreeStats summarizes a degree distribution.
	DegreeStats = algo.DegreeStats
	// EdgeDir selects traversal direction (OutEdges, InEdges, BothDirs).
	EdgeDir = algo.EdgeDir
	// WeightFunc supplies edge lengths for Dijkstra.
	WeightFunc = algo.WeightFunc
)

// Column types.
const (
	IntCol    = table.Int
	FloatCol  = table.Float
	StringCol = table.String
)

// Select comparison operators.
const (
	EQ = table.EQ
	NE = table.NE
	LT = table.LT
	LE = table.LE
	GT = table.GT
	GE = table.GE
)

// Aggregation operators.
const (
	Count = table.Count
	Sum   = table.Sum
	Min   = table.Min
	Max   = table.Max
	Mean  = table.Mean
	First = table.First
)

// SimJoin metrics.
const (
	L1   = table.L1
	L2   = table.L2
	LInf = table.LInf
)

// Traversal directions.
const (
	OutEdges = algo.Out
	InEdges  = algo.In
	BothDirs = algo.Both
)

// NewTable returns an empty table with the given schema.
func NewTable(schema Schema) (*Table, error) { return table.New(schema) }

// NewGraph returns an empty dynamic directed graph.
func NewGraph() *Graph { return graph.NewDirected() }

// NewUGraph returns an empty dynamic undirected graph.
func NewUGraph() *UGraph { return graph.NewUndirected() }

// NewNetwork returns an empty attributed multigraph.
func NewNetwork() *Network { return graph.NewNetwork() }

// LoadTableTSV loads a tab-separated file into a table with the given
// schema; header skips the first line. This is the paper's
// ringo.LoadTableTSV(schema, 'posts.tsv').
func LoadTableTSV(schema Schema, path string, header bool) (*Table, error) {
	return table.LoadTSVFile(path, schema, header)
}

// ReadTableTSV is LoadTableTSV from an io.Reader.
func ReadTableTSV(r io.Reader, schema Schema, header bool) (*Table, error) {
	return table.LoadTSV(r, schema, header)
}

// Select returns the rows of t whose col compares true against val — the
// paper's ringo.Select(P, 'Tag=Java').
func Select(t *Table, col string, op CmpOp, val any) (*Table, error) {
	return t.Select(col, op, val)
}

// SelectExpr filters with a string predicate, the exact front-end form the
// paper shows: ringo.SelectExpr(P, "Tag=Java"). Predicates combine
// column-constant comparisons with and/or/not and parentheses, and execute
// column-at-a-time over bitmap selection vectors (see
// docs/ARCHITECTURE.md, "Table execution").
func SelectExpr(t *Table, expr string) (*Table, error) {
	return t.SelectExpr(expr)
}

// DefaultIndexMaxCardinality bounds how many distinct values a column may
// hold and still be equality-indexable (BuildEqIndex's maxCard <= 0).
const DefaultIndexMaxCardinality = table.DefaultIndexMaxCardinality

// ErrHighCardinality reports that a column exceeds the equality-index
// cardinality cap; BuildEqIndex errors wrap it.
var ErrHighCardinality = table.ErrHighCardinality

// BuildEqIndex builds an equality bitmap index over a low-cardinality int
// or string column: one selection bitmap per distinct value, answering
// EQ/NE filters without a column scan (EqIndex.Lookup + SelectBitmap).
// maxCard <= 0 means DefaultIndexMaxCardinality. Prefer
// Workspace.TableEqIndex for workspace tables — indexes are then cached by
// fingerprint and purged on mutation.
func BuildEqIndex(t *Table, col string, maxCard int) (*EqIndex, error) {
	return table.BuildEqIndex(t, col, maxCard)
}

// Join equi-joins two tables — the paper's ringo.Join(Q, A, 'AnswerId',
// 'PostId'). Colliding column names get -1/-2 suffixes.
func Join(left, right *Table, leftCol, rightCol string) (*Table, error) {
	return left.Join(right, leftCol, rightCol)
}

// LeftJoin is Join preserving unmatched left rows; missing right cells read
// as nullInt / NaN / "".
func LeftJoin(left, right *Table, leftCol, rightCol string, nullInt int64) (*Table, error) {
	return left.LeftJoin(right, leftCol, rightCol, nullInt)
}

// ToGraph converts an edge table to Ringo's directed graph structure using
// the parallel sort-first algorithm (§2.4).
func ToGraph(t *Table, srcCol, dstCol string) (*Graph, error) {
	return core.ToGraph(t, srcCol, dstCol)
}

// ToUGraph converts an edge table to an undirected graph.
func ToUGraph(t *Table, srcCol, dstCol string) (*UGraph, error) {
	return core.ToUGraph(t, srcCol, dstCol)
}

// ToTable converts a directed graph back to an edge table, in parallel.
func ToTable(g *Graph, srcName, dstName string) (*Table, error) {
	return core.ToTable(g, srcName, dstName)
}

// ToNodeTable converts a graph's node set to a one-column table.
func ToNodeTable(g *Graph, name string) (*Table, error) {
	return core.ToNodeTable(g, name)
}

// AsUndirected returns the undirected view of a directed graph.
func AsUndirected(g *Graph) *UGraph { return graph.AsUndirected(g) }

// BuildView snapshots a directed graph into the flat CSR view the
// algorithm library runs over (built in parallel). Prefer
// Workspace.DirectedView when the graph lives in a workspace: the view is
// then cached by fingerprint and rebuilt only after mutations.
func BuildView(g *Graph) *View { return graph.BuildView(g) }

// BuildUView snapshots an undirected graph into its flat CSR view (see
// BuildView; the workspace counterpart is Workspace.UndirectedView).
func BuildUView(g *UGraph) *UView { return graph.BuildUView(g) }

// Incremental analytics on mutating graphs: fine-grained mutations of a
// workspace graph binding (Workspace.AddGraphEdge / DelGraphEdge /
// AddGraphNode) append typed deltas to a per-binding log instead of
// purging cached views; the next view fetch patches the nearest resident
// CSR snapshot forward when the pending batch is small (see
// DefaultPatchRatio), and the Incr algorithm variants update a previous
// answer instead of recomputing (docs/ARCHITECTURE.md, "Incremental
// analytics").
type (
	// Delta is one logged graph mutation: an operation plus its endpoints.
	Delta = graph.Delta
	// DeltaOp tags a Delta (DeltaAddNode, DeltaAddEdge, DeltaDelEdge).
	DeltaOp = graph.DeltaOp
)

// Delta operations.
const (
	DeltaAddNode = graph.DeltaAddNode
	DeltaAddEdge = graph.DeltaAddEdge
	DeltaDelEdge = graph.DeltaDelEdge
)

// DefaultPatchRatio is the workspace's patch-vs-rebuild cutoff: a view is
// patched when the pending delta batch is at most this fraction of the
// base view's V+E (Workspace.ConfigurePatching overrides; <= 0 disables
// patching).
const DefaultPatchRatio = core.DefaultPatchRatio

// DefaultPageRankTol is the convergence tolerance PageRankViewTol and
// PageRankIncr share when callers have no stricter requirement.
const DefaultPageRankTol = algo.DefaultPageRankTol

// ReservedNodeID is the node id the graph structures reserve internally;
// mutations addressing it are rejected.
const ReservedNodeID = graph.ReservedNodeID

// PatchView merges a delta batch into a directed CSR view, producing the
// snapshot a full rebuild of the current graph would produce. hasNode and
// hasEdge answer membership on the *current* graph (e.g. g.HasNode,
// g.HasEdge), which makes the patch insensitive to duplicate or
// cancelling deltas. Workspaces do this automatically; the free function
// serves embedders managing their own views.
func PatchView(base *View, hasNode func(int64) bool, hasEdge func(src, dst int64) bool, deltas []Delta) *View {
	return graph.PatchView(base, hasNode, hasEdge, deltas)
}

// PatchUView is PatchView for undirected views; hasEdge must be
// symmetric.
func PatchUView(base *UView, hasNode func(int64) bool, hasEdge func(a, b int64) bool, deltas []Delta) *UView {
	return graph.PatchUView(base, hasNode, hasEdge, deltas)
}

// PageRankViewTol iterates PageRank over a prebuilt view to a convergence
// tolerance — the cold oracle PageRankIncr is equivalent to.
func PageRankViewTol(v *View, damping, tol float64) map[int64]float64 {
	return algo.PageRankViewTol(v, damping, tol)
}

// PageRankIncr is dynamic PageRank: seeded from a previous score map,
// residual pushing plus a tolerance-driven polish make it agree with
// PageRankViewTol on the current view while doing work proportional to
// how much the solution moved.
func PageRankIncr(v *View, prev map[int64]float64, damping, tol float64) map[int64]float64 {
	return algo.PageRankIncr(v, prev, damping, tol)
}

// GetWCCIncr updates a weakly-connected-components result across addition
// deltas (identical labels to GetWCCView). ok is false when the batch
// contains an edge deletion — fall back to GetWCCView.
func GetWCCIncr(v *View, prev Components, deltas []Delta) (Components, bool) {
	return algo.WCCIncr(v, prev, deltas)
}

// CountTrianglesIncr updates a global triangle count across a mutation
// batch by examining only the wedges the changed edges touch (exactly
// CountTrianglesView of the new view).
func CountTrianglesIncr(oldV, newV *UView, oldCount int64, deltas []Delta) int64 {
	return algo.TrianglesIncr(oldV, newV, oldCount, deltas)
}

// PageRankView runs parallel PageRank over a prebuilt CSR view — the
// zero-conversion path a cached view enables. Every Get* algorithm has a
// *View sibling in the underlying library; the most common are re-exported
// here.
func PageRankView(v *View, damping float64, iters int) map[int64]float64 {
	return algo.PageRankView(v, damping, iters)
}

// GetWCCView computes weakly connected components over a prebuilt view.
func GetWCCView(v *View) Components { return algo.WCCView(v) }

// GetSCCView computes strongly connected components over a prebuilt view.
func GetSCCView(v *View) Components { return algo.SCCView(v) }

// GetBFSView returns hop distances from src over a prebuilt view.
func GetBFSView(v *View, src int64, dir EdgeDir) map[int64]int {
	return algo.BFSView(v, src, dir)
}

// CountTrianglesView counts triangles over a prebuilt undirected view.
func CountTrianglesView(v *UView) int64 { return algo.TrianglesView(v) }

// GetCoreNumbersView computes core numbers over a prebuilt undirected view.
func GetCoreNumbersView(v *UView) map[int64]int { return algo.CoreNumbersView(v) }

// LoadEdgeList reads a SNAP-style edge list file into a directed graph.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// LoadEdgeListParallel reads a SNAP-style edge list file with the parallel
// ingest pipeline: chunked parsing on all cores feeding the sort-first bulk
// constructor. It accepts the same inputs and builds the same graph as
// LoadEdgeList, minus the sequential scanner's 4 MiB line cap.
func LoadEdgeListParallel(path string) (*Graph, error) {
	return graph.LoadEdgeListParallelFile(path)
}

// BuildDirected bulk-constructs a directed graph from raw (src, dst) edge
// pairs: parallel sort, dedup, flat-arena adjacency. Equivalent to calling
// AddEdge per pair, without the per-edge sorted inserts.
func BuildDirected(edges [][2]int64) (*Graph, error) { return graph.BuildDirected(edges) }

// BuildUndirected bulk-constructs an undirected graph from raw edge pairs.
func BuildUndirected(edges [][2]int64) (*UGraph, error) { return graph.BuildUndirected(edges) }

// SaveEdgeList writes a directed graph as an edge list file. Isolated nodes
// are kept through the round trip as "# node <id>" comment lines.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// SaveGraphBinary writes a graph in the fast binary format.
func SaveGraphBinary(path string, g *Graph) error { return graph.SaveBinaryFile(path, g) }

// LoadGraphBinary reads a graph written by SaveGraphBinary.
func LoadGraphBinary(path string) (*Graph, error) { return graph.LoadBinaryFile(path) }

// LoadGraphAuto loads a directed graph from either on-disk format, sniffing
// the binary magic bytes and falling back to edge-list text.
func LoadGraphAuto(path string) (*Graph, error) { return graph.LoadFileAuto(path) }

// MappedGraph is a validated RNGM mapped CSR graph image: the beyond-RAM
// storage tier. Its View/UView serve analytics straight off the file
// through the page cache — no decode, no heap copy. Close it when done
// (a GC cleanup unmaps abandoned graphs as a backstop).
type MappedGraph = extmem.Graph

// ErrNoMmap reports that this platform cannot memory-map RNGM images;
// OpenMapped still loads them by copying the file into memory.
var ErrNoMmap = extmem.ErrNoMmap

// SaveMapped writes a directed CSR view as an RNGM mapped image — the
// page-aligned, checksummed on-disk layout OpenMapped serves in place
// (docs/FORMATS.md has the byte layout). Written atomically.
func SaveMapped(path string, v *View) error { return extmem.SaveMapped(path, v) }

// SaveMappedUndirected writes an undirected CSR view as an RNGM image.
func SaveMappedUndirected(path string, u *UView) error {
	return extmem.SaveMappedUndirected(path, u)
}

// OpenMapped validates an RNGM image and serves it from mmap where the
// platform supports it (linux, darwin), falling back to an in-memory copy
// elsewhere — MappedGraph.Mapped() reports which tier you got.
func OpenMapped(path string) (*MappedGraph, error) { return extmem.Open(path) }

// ProjectUView materializes the undirected projection of a directed CSR
// view (the merged union of in- and out-neighbors per node) — how
// undirected analytics run over a mapped directed image.
func ProjectUView(v *View) *UView { return graph.ProjectUView(v) }

// SaveUGraphBinary writes an undirected graph in the binary format's
// undirected variant.
func SaveUGraphBinary(w io.Writer, g *UGraph) error { return graph.SaveBinaryUndirected(w, g) }

// LoadUGraphBinary reads a graph written by SaveUGraphBinary.
func LoadUGraphBinary(r io.Reader) (*UGraph, error) { return graph.LoadBinaryUndirected(r) }

// SnapshotWorkspace serializes an entire workspace — tables, graphs, score
// maps, with each binding's provenance, version and fingerprint — to w in
// the binary snapshot format (checksummed per object, encoded in parallel).
func SnapshotWorkspace(ws *Workspace, w io.Writer) error { return ws.Snapshot(w) }

// RestoreWorkspace reads a snapshot written by SnapshotWorkspace into a
// fresh workspace, reproducing provenance, versions and fingerprints.
func RestoreWorkspace(r io.Reader) (*Workspace, error) {
	ws := core.NewWorkspace()
	if err := ws.Restore(r); err != nil {
		return nil, err
	}
	return ws, nil
}

// TableFromMap builds a (key, score) table from an algorithm result,
// descending by score — the paper's ringo.TableFromHashMap(PR, 'User',
// 'Scr').
func TableFromMap(m map[int64]float64, keyCol, valCol string) (*Table, error) {
	return core.TableFromMap(m, keyCol, valCol)
}

// TableFromIntMap builds a (key, value) table from integer-valued results.
func TableFromIntMap(m map[int64]int, keyCol, valCol string) (*Table, error) {
	return core.TableFromIntMap(m, keyCol, valCol)
}

// GetPageRank runs 10 iterations of parallel PageRank (damping 0.85), the
// configuration benchmarked in Table 3 of the paper.
func GetPageRank(g *Graph) map[int64]float64 { return core.GetPageRank(g) }

// PageRank runs parallel PageRank with explicit parameters.
func PageRank(g *Graph, damping float64, iters int) map[int64]float64 {
	return algo.PageRank(g, damping, iters)
}

// PageRankSeq is the sequential PageRank baseline.
func PageRankSeq(g *Graph, damping float64, iters int) map[int64]float64 {
	return algo.PageRankSeq(g, damping, iters)
}

// PersonalizedPageRank runs PageRank with teleport restricted to seeds.
func PersonalizedPageRank(g *Graph, seeds []int64, damping float64, iters int) map[int64]float64 {
	return algo.PersonalizedPageRank(g, seeds, damping, iters)
}

// GetHits computes hub and authority scores (Kleinberg's HITS).
func GetHits(g *Graph, iters int) HITSScores { return algo.HITS(g, iters) }

// CountTriangles counts undirected triangles in parallel (Table 3).
func CountTriangles(g *UGraph) int64 { return algo.Triangles(g) }

// CountTrianglesSeq is the sequential triangle-count baseline.
func CountTrianglesSeq(g *UGraph) int64 { return algo.TrianglesSeq(g) }

// NodeTriangles counts triangles per node.
func NodeTriangles(g *UGraph) map[int64]int64 { return algo.NodeTriangles(g) }

// GetClusteringCoefficient returns the average local clustering
// coefficient.
func GetClusteringCoefficient(g *UGraph) float64 { return algo.ClusteringCoefficient(g) }

// GetBFS returns hop distances from src following dir edges.
func GetBFS(g *Graph, src int64, dir EdgeDir) map[int64]int { return algo.BFS(g, src, dir) }

// GetBFSParallel is the level-synchronous parallel BFS (identical results
// to GetBFS).
func GetBFSParallel(g *Graph, src int64, dir EdgeDir) map[int64]int {
	return algo.BFSParallel(g, src, dir)
}

// GetSSSP returns unweighted single-source shortest-path distances
// (Table 6).
func GetSSSP(g *Graph, src int64) map[int64]int { return algo.SSSPUnweighted(g, src) }

// GetShortestPath returns the hop distance from src to dst, or -1.
func GetShortestPath(g *Graph, src, dst int64) int { return algo.ShortestPath(g, src, dst) }

// Dijkstra computes weighted shortest paths with non-negative weights.
func Dijkstra(g *Graph, src int64, w WeightFunc) map[int64]float64 {
	return algo.Dijkstra(g, src, w)
}

// GetWCC computes weakly connected components.
func GetWCC(g *Graph) Components { return algo.WCC(g) }

// GetWCCParallel computes weakly connected components with parallel
// hash-min label propagation (identical results to GetWCC).
func GetWCCParallel(g *Graph) Components { return algo.WCCParallel(g) }

// LargestWCC returns the subgraph induced by the largest weak component.
func LargestWCC(g *Graph) *Graph { return algo.LargestWCC(g) }

// GetSCC computes strongly connected components (iterative Tarjan,
// Table 6).
func GetSCC(g *Graph) Components { return algo.SCC(g) }

// GetCoreNumbers computes the core number of every node.
func GetCoreNumbers(g *UGraph) map[int64]int { return algo.CoreNumbers(g) }

// GetKCore returns the k-core subgraph (Table 6 benchmarks the 3-core).
func GetKCore(g *UGraph, k int) *UGraph { return algo.KCore(g, k) }

// GetKCoreDirected returns the k-core of a directed graph's undirected
// view.
func GetKCoreDirected(g *Graph, k int) *UGraph { return algo.KCoreDirected(g, k) }

// GetOutDegreeStats summarizes the out-degree distribution.
func GetOutDegreeStats(g *Graph) DegreeStats { return algo.OutDegreeStats(g) }

// GetInDegreeStats summarizes the in-degree distribution.
func GetInDegreeStats(g *Graph) DegreeStats { return algo.InDegreeStats(g) }

// GetDegreeHistogram returns (out-degree, count) pairs ascending.
func GetDegreeHistogram(g *Graph) [][2]int64 { return algo.DegreeHistogram(g) }

// GetDegreeCentrality returns normalized degree centralities.
func GetDegreeCentrality(g *UGraph) map[int64]float64 { return algo.DegreeCentrality(g) }

// MaxNode returns the node with the highest out-degree.
func MaxNode(g *Graph) (id int64, deg int, ok bool) { return algo.MaxDegreeNode(g) }

// GetCloseness returns the closeness centrality of one node.
func GetCloseness(g *Graph, id int64) float64 { return algo.Closeness(g, id) }

// GetApproxBetweenness estimates betweenness centrality from sampled
// sources.
func GetApproxBetweenness(g *Graph, samples int, seed int64) map[int64]float64 {
	return algo.ApproxBetweenness(g, samples, seed)
}

// GetEccentricity returns a node's eccentricity (direction ignored).
func GetEccentricity(g *Graph, id int64) int { return algo.Eccentricity(g, id) }

// GetApproxDiameter estimates the diameter from sampled BFS runs.
func GetApproxDiameter(g *Graph, samples int, seed int64) int {
	return algo.ApproxDiameter(g, samples, seed)
}

// GetCommunities runs label-propagation community detection.
func GetCommunities(g *UGraph, maxIters int, seed int64) map[int64]int {
	return algo.LabelPropagation(g, maxIters, seed)
}

// GetModularity scores a community assignment.
func GetModularity(g *UGraph, comm map[int64]int) float64 { return algo.Modularity(g, comm) }

// Louvain detects communities by modularity maximization, returning the
// partition and its modularity.
func Louvain(g *UGraph, maxPasses int) (map[int64]int, float64) {
	return algo.Louvain(g, maxPasses)
}

// GreedyColoring properly colors the graph (Welsh-Powell heuristic),
// returning the coloring and the number of colors used.
func GreedyColoring(g *UGraph) (map[int64]int, int) { return algo.GreedyColoring(g) }

// MaximalMatching returns a deterministic greedy maximal matching.
func MaximalMatching(g *UGraph) [][2]int64 { return algo.MaximalMatching(g) }

// IndependentSetGreedy returns a maximal independent set.
func IndependentSetGreedy(g *UGraph) []int64 { return algo.IndependentSetGreedy(g) }

// GetRandomWalk returns a seeded random walk from start.
func GetRandomWalk(g *Graph, start int64, length int, seed int64) []int64 {
	return algo.RandomWalk(g, start, length, seed)
}

// TopK returns the k highest-scored nodes, descending.
func TopK(scores map[int64]float64, k int) []Scored { return algo.TopK(scores, k) }

// Generators (offline stand-ins for the paper's datasets; see internal/gen).

// GenRMATTable generates an R-MAT edge table with power-law degree skew
// (2^scale node id space, nEdges rows).
func GenRMATTable(scale int, nEdges int64, seed int64) *Table {
	return gen.RMATTable(scale, nEdges, seed)
}

// GenGNM generates a uniform random directed graph with n nodes, m edges.
func GenGNM(n int, m int64, seed int64) *Graph { return gen.GNM(n, m, seed) }

// GenGNP generates a directed G(n,p) random graph.
func GenGNP(n int, p float64, seed int64) *Graph { return gen.GNP(n, p, seed) }

// GenBarabasiAlbert generates a preferential-attachment graph.
func GenBarabasiAlbert(n, m int, seed int64) *UGraph { return gen.BarabasiAlbert(n, m, seed) }

// GenWattsStrogatz generates a small-world graph.
func GenWattsStrogatz(n, k int, beta float64, seed int64) *UGraph {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// SOConfig configures the synthetic StackOverflow posts generator.
type SOConfig = gen.SOConfig

// SOSchema is the posts-table schema used by the §4.1 demo.
var SOSchema = gen.SOSchema

// DefaultSOConfig returns the demo-sized StackOverflow configuration.
func DefaultSOConfig() SOConfig { return gen.DefaultSOConfig() }

// GenStackOverflowPosts generates the synthetic Q&A posts table standing in
// for the StackOverflow dump of the paper's demo.
func GenStackOverflowPosts(cfg SOConfig) (*Table, error) { return gen.StackOverflowPosts(cfg) }

// SimJoinTables joins rows of two tables whose numeric feature vectors are
// within threshold (§2.3's SimJoin).
func SimJoinTables(left, right *Table, leftCols, rightCols []string, threshold float64, m Metric) (*Table, error) {
	return left.SimJoin(right, leftCols, rightCols, threshold, m)
}

// NextK joins each row with its next k successors within a group ordered by
// a time column (§2.3's NextK).
func NextK(t *Table, groupCol, orderCol string, k int) (*Table, error) {
	return t.NextK(groupCol, orderCol, k)
}

// NaiveToGraph is the per-edge-insertion conversion baseline (ablation for
// the sort-first design choice).
func NaiveToGraph(t *Table, srcCol, dstCol string) (*Graph, error) {
	return conv.NaiveToDirected(t, srcCol, dstCol)
}

// ToNetwork converts an edge table to an attributed multigraph: one edge
// per row (parallel edges preserved), with the named extra columns attached
// as edge attributes — Ringo's path for keeping row payloads on graphs.
func ToNetwork(t *Table, srcCol, dstCol string, attrCols ...string) (*Network, error) {
	return conv.ToNetwork(t, srcCol, dstCol, attrCols...)
}

// MSTEdge is an edge of a minimum spanning forest.
type MSTEdge = algo.MSTEdge

// MotifCounts holds directed 3-node motif statistics.
type MotifCounts = algo.MotifCounts

// GetArticulationPoints returns the cut vertices of an undirected graph.
func GetArticulationPoints(g *UGraph) []int64 { return algo.ArticulationPoints(g) }

// GetBridges returns the cut edges of an undirected graph.
func GetBridges(g *UGraph) [][2]int64 { return algo.Bridges(g) }

// TopoSort returns a topological order, or an error on cyclic graphs.
func TopoSort(g *Graph) ([]int64, error) { return algo.TopoSort(g) }

// IsDAG reports whether the directed graph is acyclic.
func IsDAG(g *Graph) bool { return algo.IsDAG(g) }

// Bipartition two-colors an undirected graph; ok is false when the graph
// has an odd cycle.
func Bipartition(g *UGraph) (side map[int64]int, ok bool) { return algo.Bipartition(g) }

// MinimumSpanningForest computes a minimum spanning forest under w.
func MinimumSpanningForest(g *UGraph, w func(u, v int64) float64) ([]MSTEdge, float64) {
	return algo.MinimumSpanningForest(g, w)
}

// CountMotifs counts directed triangle motifs and wedges.
func CountMotifs(g *Graph) MotifCounts { return algo.CountMotifs(g) }

// PageRankConverged iterates PageRank to an L1 tolerance, returning scores
// and the iterations used.
func PageRankConverged(g *Graph, damping, tol float64, maxIters int) (map[int64]float64, int) {
	return algo.PageRankConverged(g, damping, tol, maxIters)
}

// PredictedLink is a scored candidate edge from link prediction.
type PredictedLink = algo.PredictedLink

// SIRResult summarizes an SIR epidemic simulation.
type SIRResult = algo.SIRResult

// CommonNeighbors counts shared neighbors of two nodes.
func CommonNeighbors(g *UGraph, u, v int64) int { return algo.CommonNeighbors(g, u, v) }

// Jaccard returns the neighborhood Jaccard similarity of two nodes.
func Jaccard(g *UGraph, u, v int64) float64 { return algo.Jaccard(g, u, v) }

// AdamicAdar returns the Adamic-Adar link-prediction index of two nodes.
func AdamicAdar(g *UGraph, u, v int64) float64 { return algo.AdamicAdar(g, u, v) }

// PreferentialAttachment returns deg(u)×deg(v).
func PreferentialAttachment(g *UGraph, u, v int64) int {
	return algo.PreferentialAttachment(g, u, v)
}

// PredictLinks returns the top-k non-edges ranked by Adamic-Adar score.
func PredictLinks(g *UGraph, k int) []PredictedLink { return algo.PredictLinks(g, k) }

// GetReciprocity returns the fraction of reciprocated directed edges.
func GetReciprocity(g *Graph) float64 { return algo.Reciprocity(g) }

// GetDegreeAssortativity returns Newman's degree assortativity r.
func GetDegreeAssortativity(g *UGraph) float64 { return algo.DegreeAssortativity(g) }

// GetEffectiveDiameter estimates the 90th-percentile distance from sampled
// BFS runs.
func GetEffectiveDiameter(g *Graph, samples int, seed int64) float64 {
	return algo.EffectiveDiameter(g, samples, seed)
}

// FitPowerLaw fits the degree-distribution exponent alpha over degrees >=
// dmin.
func FitPowerLaw(g *UGraph, dmin int) (alpha float64, ok bool) {
	return algo.PowerLawExponent(g, dmin)
}

// GetDegreePercentiles returns out-degree percentiles (0-100).
func GetDegreePercentiles(g *Graph, pcts []float64) []int {
	return algo.DegreePercentiles(g, pcts)
}

// SimulateCascade runs the independent cascade diffusion model from seeds.
func SimulateCascade(g *Graph, seeds []int64, p float64, seed int64) map[int64]int {
	return algo.IndependentCascade(g, seeds, p, seed)
}

// SimulateSIR runs a discrete SIR epidemic on an undirected graph.
func SimulateSIR(g *UGraph, seeds []int64, beta, gamma float64, seed int64) SIRResult {
	return algo.SIR(g, seeds, beta, gamma, seed)
}

// Subgraph returns the induced subgraph on the given node ids.
func Subgraph(g *Graph, ids []int64) *Graph { return graph.Subgraph(g, ids) }

// SubgraphUndirected returns the induced undirected subgraph.
func SubgraphUndirected(g *UGraph, ids []int64) *UGraph { return graph.SubgraphUndirected(g, ids) }

// ReverseGraph returns the graph with all edges flipped.
func ReverseGraph(g *Graph) *Graph { return graph.Reverse(g) }

// UnionGraphs returns the union of two directed graphs.
func UnionGraphs(a, b *Graph) *Graph { return graph.Union(a, b) }
