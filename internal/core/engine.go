// Package core is the Ringo engine: it ties the table store, the graph
// store, the conversions and the algorithm library into the verb set the
// paper's Python front-end exposes (LoadTableTSV, Select, Join, ToGraph,
// GetPageRank, TableFromHashMap, ...). The root ringo package re-exports
// this API; cmd/ringo drives it interactively; the experiment harness in
// this package regenerates every table of the paper's evaluation.
//
// The package's two stateful pieces implement the paper's session model:
// Workspace is the named-object registry standing in for the Python
// session (provenance-tracked bindings, versioned fingerprints, binary
// snapshot/restore), and ViewCache — embedded in every workspace — keeps
// the flat CSR snapshots (graph.View/UView) that algorithms run over,
// keyed by object fingerprint so a graph is converted to its optimized
// representation once per state, not once per query.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/extmem"
	"ringo/internal/graph"
	"ringo/internal/table"
)

// ToGraph converts an edge table into Ringo's directed graph representation
// with the parallel sort-first algorithm (§2.4).
func ToGraph(t *table.Table, srcCol, dstCol string) (*graph.Directed, error) {
	return conv.ToDirected(t, srcCol, dstCol)
}

// ToUGraph converts an edge table into an undirected graph.
func ToUGraph(t *table.Table, srcCol, dstCol string) (*graph.Undirected, error) {
	return conv.ToUndirected(t, srcCol, dstCol)
}

// ToTable converts a directed graph back into an edge table.
func ToTable(g *graph.Directed, srcName, dstName string) (*table.Table, error) {
	return conv.ToEdgeTable(g, srcName, dstName)
}

// ToNodeTable converts a graph's node set into a single-column table.
func ToNodeTable(g *graph.Directed, name string) (*table.Table, error) {
	return conv.ToNodeTable(g, name)
}

// GetPageRank runs 10 iterations of parallel PageRank with the standard
// damping factor, the configuration timed in Table 3.
func GetPageRank(g *graph.Directed) map[int64]float64 {
	return algo.PageRank(g, algo.DefaultDamping, 10)
}

// TableFromMap builds a two-column table (key, score) from an algorithm
// result map, sorted by descending score — the paper's TableFromHashMap,
// closing the loop from graph analytics back to tables.
func TableFromMap(m map[int64]float64, keyCol, valCol string) (*table.Table, error) {
	type kv struct {
		k int64
		v float64
	}
	pairs := make([]kv, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, kv{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].k < pairs[j].k
	})
	keys := make([]int64, len(pairs))
	vals := make([]float64, len(pairs))
	for i, p := range pairs {
		keys[i] = p.k
		vals[i] = p.v
	}
	t, err := table.FromIntColumns([]string{keyCol}, [][]int64{keys})
	if err != nil {
		return nil, err
	}
	if err := t.AddFloatColumn(valCol, vals); err != nil {
		return nil, err
	}
	return t, nil
}

// TableFromIntMap is TableFromMap for integer-valued results (component
// labels, core numbers, hop distances).
func TableFromIntMap(m map[int64]int, keyCol, valCol string) (*table.Table, error) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = int64(m[k])
	}
	return table.FromIntColumns([]string{keyCol, valCol}, [][]int64{keys, vals})
}

// Object is a value held in a Workspace: a table, a graph (in-heap or
// mapped from an RNGM image), or a score map.
type Object struct {
	Table  *table.Table
	Graph  *graph.Directed
	UGraph *graph.Undirected
	Scores map[int64]float64
	// Mapped is a read-only graph served in place from an RNGM file (the
	// beyond-RAM tier): its views come straight from the mapping, never
	// from the view cache, and mutating verbs reject it.
	Mapped *extmem.Graph
}

// Kind describes what an Object holds.
func (o Object) Kind() string {
	switch {
	case o.Table != nil:
		return "table"
	case o.Graph != nil:
		return "graph"
	case o.UGraph != nil:
		return "ugraph"
	case o.Scores != nil:
		return "scores"
	case o.Mapped != nil:
		return "mgraph"
	default:
		return "empty"
	}
}

// Summary is a one-line description of the object for the shell.
func (o Object) Summary() string {
	switch {
	case o.Table != nil:
		return fmt.Sprintf("table  %d rows × %d cols  (%s)", o.Table.NumRows(), o.Table.NumCols(), schemaString(o.Table))
	case o.Graph != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (directed)", o.Graph.NumNodes(), o.Graph.NumEdges())
	case o.UGraph != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (undirected)", o.UGraph.NumNodes(), o.UGraph.NumEdges())
	case o.Scores != nil:
		return fmt.Sprintf("scores %d nodes", len(o.Scores))
	case o.Mapped != nil:
		via := "mmap"
		if !o.Mapped.Mapped() {
			via = "copied"
		}
		return fmt.Sprintf("mgraph %d nodes, %d edges (%s, %s %s)",
			o.Mapped.NumNodes(), o.Mapped.NumEdges(), o.Mapped.Kind(), via, o.Mapped.Path())
	default:
		return "empty"
	}
}

func schemaString(t *table.Table) string {
	s := ""
	for i, c := range t.Schema() {
		if i > 0 {
			s += ", "
		}
		s += c.Name + ":" + c.Type.String()
	}
	return s
}

// Workspace is a named-object registry backing the interactive shell and
// the analytics server — the stand-in for the Python session in which Ringo
// objects live. Each binding records its provenance (the operation that
// created it), extending Ringo's fine-grained data tracking from rows to
// whole objects: ls shows how every object in the session came to be.
//
// Every binding also carries a version drawn from a workspace-wide clock.
// Rebinding or touching a name bumps its version, so (name, version) pairs —
// surfaced as Fingerprint — identify an object's exact state and make safe
// cache keys: any mutation invalidates all fingerprints taken before it.
//
// Graph bindings are queried through DirectedView/UndirectedView, which
// serve the flat CSR snapshot algorithms run over from a fingerprint-keyed
// ViewCache: the first query on a graph pays the O(V+E) conversion, every
// later query on the unchanged graph goes straight to flat-array compute.
// Rebinding operations (Set, Delete, Rename, Touch, Restore) purge the
// affected views — the new object shares nothing with the cached state.
//
// Fine-grained graph mutations (AddGraphEdge, DelGraphEdge, AddGraphNode)
// are different: they bump the version but keep the binding's cached views
// resident and append to its delta log, so the next query patches the
// pending deltas onto a cached base view (graph.PatchView) instead of
// rebuilding — as long as the batch stays under the ConfigurePatching
// threshold. See incremental.go for the delta-log machinery.
//
// A Workspace is safe for concurrent use by multiple goroutines.
type Workspace struct {
	mu      sync.RWMutex
	objs    map[string]Object
	prov    map[string]string
	ver     map[string]uint64
	clock   uint64
	order   []string
	views   *ViewCache
	indexes *IndexCache
	// deltas holds each graph binding's pending mutation log; patchRatio
	// is the patch-vs-rebuild threshold; patches/rebuilds count how view
	// materializations were served (they are touched inside cache build
	// closures, outside mu — hence atomics).
	deltas     map[string]*deltaLog
	patchRatio float64
	patches    atomic.Uint64
	rebuilds   atomic.Uint64
}

// NewWorkspace returns an empty workspace with a view cache of
// DefaultViewCacheEntries and an equality-index cache of
// DefaultIndexCacheEntries; resize or disable them with ConfigureViewCache
// and ConfigureIndexCache.
func NewWorkspace() *Workspace {
	return &Workspace{
		objs:       make(map[string]Object),
		prov:       make(map[string]string),
		ver:        make(map[string]uint64),
		views:      NewViewCache(DefaultViewCacheEntries),
		indexes:    NewIndexCache(DefaultIndexCacheEntries),
		deltas:     make(map[string]*deltaLog),
		patchRatio: DefaultPatchRatio,
	}
}

// ConfigureViewCache resizes the workspace's CSR view cache; maxEntries < 1
// disables caching (every query rebuilds its view). The previous cache's
// contents are discarded.
func (w *Workspace) ConfigureViewCache(maxEntries int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if maxEntries < 1 {
		w.views = nil
		return
	}
	w.views = NewViewCache(maxEntries)
}

// ViewCacheStats reports the view cache's cumulative hits and misses, the
// current entry count and resident bytes (zeros when disabled).
func (w *Workspace) ViewCacheStats() (hits, misses uint64, entries int, bytes int64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.views.Stats()
}

// ConfigureIndexCache resizes the workspace's equality-index cache;
// maxEntries < 1 disables caching (every TableEqIndex call rebuilds). The
// previous cache's contents are discarded.
func (w *Workspace) ConfigureIndexCache(maxEntries int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if maxEntries < 1 {
		w.indexes = nil
		return
	}
	w.indexes = NewIndexCache(maxEntries)
}

// IndexCacheStats reports the equality-index cache's cumulative hits and
// misses, the current entry count and resident bytes (zeros when disabled).
func (w *Workspace) IndexCacheStats() (hits, misses uint64, entries int, bytes int64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.indexes.Stats()
}

// TableEqIndex returns the equality bitmap index over col of the table
// bound to name, built on first use and served from the fingerprint-keyed
// index cache on every later call against the unchanged table — the
// relational analogue of DirectedView's build-once-query-many contract. The
// warm path is a single cache probe with no allocation. Build failures
// (missing column, float column, cardinality over the cap) are returned —
// and cached — as errors; callers treat any error as "filter by scanning".
func (w *Workspace) TableEqIndex(name, col string) (*table.EqIndex, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	ver := w.ver[name]
	idxc := w.indexes
	w.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Table == nil {
		return nil, fmt.Errorf("%q is a %s, not a table", name, o.Kind())
	}
	if idx, err, hit := idxc.Cached(name, ver, col); hit {
		return idx, err
	}
	idx, err := idxc.Get(name, ver, col, func() (*table.EqIndex, error) {
		return table.BuildEqIndex(o.Table, col, 0)
	})
	w.dropIndexIfStale(idxc, name, ver)
	return idx, err
}

// dropIndexIfStale is dropIfStale for the index cache: it evicts indexes of
// a binding state that was mutated away while an index build was in flight.
func (w *Workspace) dropIndexIfStale(idxc *IndexCache, name string, ver uint64) {
	if cur, ok := w.Version(name); !ok || cur != ver {
		idxc.Drop(name, ver)
	}
}

// DirectedView returns the CSR view of the directed graph bound to name,
// served from the view cache when possible: on a hit no O(V+E) conversion
// runs, the paper's build-once-query-many model.
func (w *Workspace) DirectedView(name string) (*graph.View, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	ver := w.ver[name]
	views := w.views
	plan := w.patchPlanLocked(name)
	w.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Mapped != nil && o.Mapped.View() == nil {
		return nil, fmt.Errorf("%q is an undirected mapped graph, not a directed one", name)
	}
	if o.Graph == nil && o.Mapped == nil {
		return nil, fmt.Errorf("%q is a %s, not a directed graph", name, o.Kind())
	}
	v := w.directedView(name, o, ver, views, plan)
	w.dropIfStale(views, name, ver)
	return v, nil
}

// directedView serves the directed view of a directed-graph binding whose
// state (o at version ver, with its patch plan) was read under the
// workspace lock. A mapped graph IS its view: no conversion to cache, no
// heap bytes for the cache to account, so it is served straight from the
// mapping. A heap graph's view comes from the cache, patched from a
// resident base when the delta log allows, or built.
func (w *Workspace) directedView(name string, o Object, ver uint64, views *ViewCache, plan patchPlan) *graph.View {
	if o.Mapped != nil {
		return o.Mapped.View()
	}
	return views.Directed(name, ver, func() *graph.View {
		if base, pending := plan.baseDirected(views, name); base != nil {
			w.patches.Add(1)
			return graph.PatchView(base, o.Graph.HasNode, o.Graph.HasEdge, pending)
		}
		w.rebuilds.Add(1)
		return graph.BuildView(o.Graph)
	})
}

// UndirectedView returns the undirected CSR view of the graph bound to
// name — for a directed graph, the view of its undirected projection
// (edge directions dropped, duplicates merged), which is what triangle
// counting, bridges, k-core and the other orientation-blind algorithms
// consume. Cached like DirectedView. A directed graph's projection, heap
// or mapped, is built by graph.ProjectUView from its directed view
// (resident, patched or built on the way), so the cached undirected entry
// may wait on the directed one, never the reverse.
func (w *Workspace) UndirectedView(name string) (*graph.UView, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	ver := w.ver[name]
	views := w.views
	plan := w.patchPlanLocked(name)
	w.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	var v *graph.UView
	switch {
	case o.UGraph != nil:
		v = views.Undirected(name, ver, func() *graph.UView {
			if base, pending := plan.baseUndirected(views, name); base != nil {
				w.patches.Add(1)
				return graph.PatchUView(base, o.UGraph.HasNode, o.UGraph.HasEdge, pending)
			}
			w.rebuilds.Add(1)
			return graph.BuildUView(o.UGraph)
		})
	case o.Mapped != nil && o.Mapped.UView() != nil:
		// An undirected mapped image is served in place, like DirectedView.
		return o.Mapped.UView(), nil
	case o.Graph != nil || o.Mapped != nil:
		v = views.Undirected(name, ver, func() *graph.UView {
			if g := o.Graph; g != nil {
				if base, pending := plan.baseUndirected(views, name); base != nil {
					w.patches.Add(1)
					// An undirected edge of the projection exists when
					// either orientation does.
					sym := func(a, b int64) bool { return g.HasEdge(a, b) || g.HasEdge(b, a) }
					return graph.PatchUView(base, g.HasNode, sym, pending)
				}
				w.rebuilds.Add(1)
			}
			// A resident directed view serves as the projection's source
			// the way a patch base does, without counting a cache hit.
			dv := views.PeekDirected(name, ver)
			if dv == nil {
				dv = w.directedView(name, o, ver, views, plan)
			}
			return graph.ProjectUView(dv)
		})
	default:
		return nil, fmt.Errorf("%q is a %s, not a graph", name, o.Kind())
	}
	w.dropIfStale(views, name, ver)
	return v, nil
}

// dropIfStale evicts the view just served if its binding was mutated away
// while the view was being built: in that interleaving the mutator's
// purge ran before the cache insertion landed, and without this check the
// dead view would stay resident until LRU pressure reached it. (If the
// mutation happens after this check instead, its purge runs after the
// insertion and removes the entry itself — either order is covered.)
//
// Views superseded by *delta-logged* mutations are deliberately kept:
// they are exactly the base states the next query patches from, so a view
// is only stale when no live delta log covers its version (the binding
// was rebound, renamed, touched or deleted).
func (w *Workspace) dropIfStale(views *ViewCache, name string, ver uint64) {
	w.mu.RLock()
	cur, ok := w.ver[name]
	patchable := false
	if dl := w.deltas[name]; ok && dl != nil {
		patchable = ver >= dl.baseVer && ver <= cur
	}
	w.mu.RUnlock()
	if !ok || (cur != ver && !patchable) {
		views.Drop(name, ver)
	}
}

// Set binds name to an object, replacing any previous binding.
func (w *Workspace) Set(name string, o Object) {
	w.SetWithProvenance(name, o, "")
}

// SetWithProvenance binds name to an object and records the operation that
// produced it.
func (w *Workspace) SetWithProvenance(name string, o Object, prov string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, exists := w.objs[name]; !exists {
		w.order = append(w.order, name)
	}
	w.objs[name] = o
	w.prov[name] = prov
	w.clock++
	w.ver[name] = w.clock
	w.views.Purge(name)
	w.indexes.Purge(name)
	delete(w.deltas, name)
}

// Delete removes a binding, reporting whether it existed.
func (w *Workspace) Delete(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.objs[name]; !ok {
		return false
	}
	delete(w.objs, name)
	delete(w.prov, name)
	delete(w.ver, name)
	for i, n := range w.order {
		if n == name {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	w.views.Purge(name)
	w.indexes.Purge(name)
	delete(w.deltas, name)
	return true
}

// Rename rebinds oldName as newName, carrying provenance along. The renamed
// binding gets a fresh version (its identity changed), and any existing
// binding at newName is replaced.
func (w *Workspace) Rename(oldName, newName string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.objs[oldName]
	if !ok {
		return fmt.Errorf("no object named %q", oldName)
	}
	if oldName == newName {
		return nil
	}
	prov := w.prov[oldName]
	delete(w.objs, oldName)
	delete(w.prov, oldName)
	delete(w.ver, oldName)
	for i, n := range w.order {
		if n == newName {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	for i, n := range w.order {
		if n == oldName {
			w.order[i] = newName
			break
		}
	}
	w.objs[newName] = o
	w.prov[newName] = prov
	w.clock++
	w.ver[newName] = w.clock
	w.views.Purge(oldName)
	w.views.Purge(newName)
	w.indexes.Purge(oldName)
	w.indexes.Purge(newName)
	delete(w.deltas, oldName)
	delete(w.deltas, newName)
	return nil
}

// Touch bumps the version of a binding whose object was mutated in place
// (e.g. an in-place sort), invalidating fingerprints taken before the
// mutation. It is a no-op for unknown names.
func (w *Workspace) Touch(name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.objs[name]; ok {
		w.clock++
		w.ver[name] = w.clock
		w.views.Purge(name)
		w.indexes.Purge(name)
		delete(w.deltas, name)
	}
}

// Version returns the binding's version (0, false if unbound).
func (w *Workspace) Version(name string) (uint64, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	v, ok := w.ver[name]
	return v, ok
}

// Fingerprint identifies the exact state of a binding as "name#version".
// It changes whenever the name is rebound, renamed or touched, so it is a
// safe component of result-cache keys.
func (w *Workspace) Fingerprint(name string) (string, bool) {
	v, ok := w.Version(name)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s#%d", name, v), true
}

// Provenance returns the recorded origin of a binding ("" if untracked).
func (w *Workspace) Provenance(name string) string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.prov[name]
}

// Get returns the object bound to name.
func (w *Workspace) Get(name string) (Object, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	return o, ok
}

// Table returns the table bound to name or an error.
func (w *Workspace) Table(name string) (*table.Table, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Table == nil {
		return nil, fmt.Errorf("%q is a %s, not a table", name, o.Kind())
	}
	return o.Table, nil
}

// Graph returns the directed graph bound to name or an error.
func (w *Workspace) Graph(name string) (*graph.Directed, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Graph == nil {
		return nil, fmt.Errorf("%q is a %s, not a directed graph", name, o.Kind())
	}
	return o.Graph, nil
}

// Scores returns the score map bound to name or an error.
func (w *Workspace) Scores(name string) (map[int64]float64, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Scores == nil {
		return nil, fmt.Errorf("%q is a %s, not a score map", name, o.Kind())
	}
	return o.Scores, nil
}

// Names lists bound names in binding order.
func (w *Workspace) Names() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]string(nil), w.order...)
}

// MappedGraph returns the mapped graph bound to name or an error.
func (w *Workspace) MappedGraph(name string) (*extmem.Graph, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Mapped == nil {
		return nil, fmt.Errorf("%q is a %s, not a mapped graph", name, o.Kind())
	}
	return o.Mapped, nil
}

// MappedBytes reports the total size of RNGM images bound in the
// workspace. These bytes are file-backed (page cache, not Go heap), which
// is why they are accounted separately from the view cache's resident
// bytes in stats and metrics.
func (w *Workspace) MappedBytes() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var total int64
	for _, o := range w.objs {
		if o.Mapped != nil {
			total += o.Mapped.Bytes()
		}
	}
	return total
}
