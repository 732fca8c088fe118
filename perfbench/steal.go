package main

import (
	"sort"
	"sync"
	"time"
)

// stealWindow is the resolution at which the run watches steal time.
const stealWindow = 50 * time.Millisecond

// The kernel accounts steal in clock ticks (10ms). A window is disturbed
// when more than one tick was stolen in it (a stray tick is background);
// a timing is matched against windows one tick beyond its ends, as the
// accounting can lag by a tick.
const (
	stealTick    = 10 * time.Millisecond
	stealAllowed = 0.015 // seconds stolen per window, summed over CPUs
)

// stealMon samples the host's cumulative steal time every stealWindow. On a
// shared virtual machine the hypervisor runs other guests on this guest's
// CPUs in bursts; a timing taken across such a burst measures the
// neighbours, not the program. stealMon tells which timings were taken in
// calm windows.
type stealMon struct {
	mu       sync.Mutex
	at       []time.Time
	steal    []float64
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func startStealMon() *stealMon {
	m := &stealMon{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealWindow)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMon) sample() {
	s, now := stealSeconds(), time.Now()
	m.mu.Lock()
	m.at = append(m.at, now)
	m.steal = append(m.steal, s)
	m.mu.Unlock()
}

// halt ends sampling and waits for the sampler to exit; later calls do
// nothing.
func (m *stealMon) halt() {
	m.stopOnce.Do(func() {
		close(m.stop)
		<-m.done
	})
}

// clean reports whether no window overlapping [a, b], widened by a tick
// on each side, is disturbed. Call after halt.
func (m *stealMon) clean(a, b time.Time) bool {
	a, b = a.Add(-stealTick), b.Add(stealTick)
	// Window i spans (at[i-1], at[i]].
	i := sort.Search(len(m.at), func(i int) bool { return m.at[i].After(a) })
	for i = max(i, 1); i < len(m.at) && m.at[i-1].Before(b); i++ {
		if m.steal[i]-m.steal[i-1] > stealAllowed {
			return false
		}
	}
	return true
}

// calm returns the values of ts measured in calm windows, or all of them
// when fewer than half are: a run disturbed throughout reports what it
// measured. ok says whether the calm subset was used.
func (m *stealMon) calm(ts []timed) (vals []float64, ok bool) {
	for _, t := range ts {
		if m.clean(t.start, t.end) {
			vals = append(vals, t.v)
		}
	}
	if 2*len(vals) >= len(ts) {
		return vals, true
	}
	return values(ts), false
}

// calmSeconds is the calm share of [a, b] in seconds, by the same rule as
// clean.
func (m *stealMon) calmSeconds(a, b time.Time) float64 {
	var s float64
	for t := a; t.Before(b); t = t.Add(stealWindow) {
		end := t.Add(stealWindow)
		if end.After(b) {
			end = b
		}
		if m.clean(t, end) {
			s += end.Sub(t).Seconds()
		}
	}
	return s
}

func values(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.v
	}
	return out
}
