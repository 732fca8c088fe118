package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestViewFromArraysRoundTrip(t *testing.T) {
	v := BuildView(randomDirected(t, 200, 1500, 1))
	ids, outOff, inOff, out, in := v.ViewParts()
	got, err := ViewFromArrays(ids, outOff, inOff, out, in, nil)
	if err != nil {
		t.Fatalf("ViewFromArrays rejected a valid view: %v", err)
	}
	for i := 0; i < v.NumNodes(); i++ {
		if !slices.Equal(v.Out(int32(i)), got.Out(int32(i))) || !slices.Equal(v.In(int32(i)), got.In(int32(i))) {
			t.Fatalf("adjacency of dense %d differs", i)
		}
	}
	// The reconstructed view has no hash map; Index must still resolve
	// every id (binary search) and miss absent ones.
	for _, id := range ids {
		wi, _ := v.Index(id)
		gi, ok := got.Index(id)
		if !ok || wi != gi {
			t.Fatalf("Index(%d) = %d,%v; want %d,true", id, gi, ok, wi)
		}
	}
	if _, ok := got.Index(-5); ok {
		t.Fatalf("Index hit on absent id")
	}
}

func TestViewFromArraysRejectsBadShapes(t *testing.T) {
	v := BuildView(randomDirected(t, 50, 300, 2))
	ids, outOff, inOff, out, in := v.ViewParts()

	badIDs := slices.Clone(ids)
	badIDs[3] = badIDs[2]
	if _, err := ViewFromArrays(badIDs, outOff, inOff, out, in, nil); err == nil {
		t.Fatalf("accepted non-ascending ids")
	}

	badOff := slices.Clone(outOff)
	badOff[0] = 1
	if _, err := ViewFromArrays(ids, badOff, inOff, out, in, nil); err == nil {
		t.Fatalf("accepted offset vector not starting at 0")
	}

	badOut := slices.Clone(out)
	badOut[0] = int32(len(ids)) // out of range
	if _, err := ViewFromArrays(ids, outOff, inOff, badOut, in, nil); err == nil {
		t.Fatalf("accepted out-of-range neighbor")
	}

	if _, err := ViewFromArrays(ids, outOff[:len(outOff)-1], inOff, out, in, nil); err == nil {
		t.Fatalf("accepted short offset vector")
	}
}

// projectTestGraph is a random directed graph with every shape the
// projection must fold: self-loops, reciprocal pairs (one undirected edge
// from two arcs), isolated nodes and deleted nodes (tombstoned slots and
// renumbered dense indices).
func projectTestGraph(rng *rand.Rand) *Directed {
	n := 1 + rng.Intn(80)
	g := NewDirected()
	for i, m := 0, rng.Intn(4*n); i < m; i++ {
		a, b := int64(rng.Intn(n)), int64(rng.Intn(n))
		g.AddEdge(a, b)
		switch rng.Intn(8) {
		case 0:
			g.AddEdge(b, a)
		case 1:
			g.AddEdge(a, a)
		}
	}
	for k := rng.Intn(5); k > 0; k-- {
		g.AddNode(int64(n + k))
	}
	for k := rng.Intn(n/4 + 1); k > 0; k-- {
		g.DelNode(int64(rng.Intn(n)))
	}
	return g
}

// TestProjectUView is the projection's oracle property: over random
// directed graphs, ProjectUView(BuildView(g)) equals
// BuildUView(AsUndirected(g)) in ids, offsets and arena, and every
// projected vector is the union of the node's out- and in-vectors.
func TestProjectUView(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		g := NewDirected()
		if trial > 0 {
			g = projectTestGraph(rng)
		}
		v := BuildView(g)
		u := ProjectUView(v)
		ids, off, arena := u.UViewParts()
		wantIDs, wantOff, wantArena := BuildUView(AsUndirected(g)).UViewParts()
		if !slices.Equal(ids, wantIDs) || !slices.Equal(off, wantOff) || !slices.Equal(arena, wantArena) {
			t.Fatalf("trial %d: projection differs from BuildUView(AsUndirected(g)):\nids %v\nwant %v\noff %v\nwant %v\narena %v\nwant %v",
				trial, ids, wantIDs, off, wantOff, arena, wantArena)
		}
		for i := int32(0); int(i) < v.NumNodes(); i++ {
			union := slices.Concat(v.Out(i), v.In(i))
			slices.Sort(union)
			if !slices.Equal(u.Adj(i), slices.Compact(union)) {
				t.Fatalf("trial %d: dense %d: projected %v, want out/in union %v", trial, i, u.Adj(i), union)
			}
			if j, ok := u.Index(u.ID(i)); !ok || j != i {
				t.Fatalf("trial %d: Index(%d) = %d,%v; want %d", trial, u.ID(i), j, ok, i)
			}
		}
	}
}
