package main

// statsAcc turns GET /stats and /metrics readings into per-run deltas.
// The server's view and index counters sum over live sessions only, so a
// workload that drops sessions reads them just before each drop and
// accumulates what the dropped session contributed.
type statsAcc struct {
	start, last   Stats
	cacheHits     float64
	cacheMisses   float64
	viewHits      float64
	viewMisses    float64
	patches       float64
	rebuilds      float64
	indexHits     float64
	indexMisses   float64
	pendingDeltas float64
	requests0     float64
	requests      float64
}

func (a *statsAcc) begin(p *serverProc) error {
	s, err := p.stats()
	if err != nil {
		return err
	}
	a.requests0, err = p.requests()
	a.start, a.last = s, s
	return err
}

// beforeDrop folds the counts the session about to be dropped added since
// the last reading.
func (a *statsAcc) beforeDrop(p *serverProc) {
	s, err := p.stats()
	if err != nil {
		return
	}
	a.add(a.last, s)
	a.last = a.start // after the drop the live sum is back to the base
}

func (a *statsAcc) add(from, to Stats) {
	a.viewHits += to.Views.Hits - from.Views.Hits
	a.viewMisses += to.Views.Misses - from.Views.Misses
	a.patches += to.Views.Patches - from.Views.Patches
	a.rebuilds += to.Views.Rebuilds - from.Views.Rebuilds
	a.indexHits += to.Indexes.Hits - from.Indexes.Hits
	a.indexMisses += to.Indexes.Misses - from.Indexes.Misses
}

func (a *statsAcc) end(p *serverProc) error {
	s, err := p.stats()
	if err != nil {
		return err
	}
	// Sessions still live add what they counted since the last reading;
	// after a final drop that is nothing.
	a.add(a.last, s)
	// The result cache is shared and its counters are cumulative.
	a.cacheHits = s.Cache.Hits - a.start.Cache.Hits
	a.cacheMisses = s.Cache.Misses - a.start.Cache.Misses
	a.pendingDeltas = s.Views.DeltaEdges
	r, err := p.requests()
	a.requests = r - a.requests0
	return err
}
