package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one timed command.
type sample struct {
	key   string // step kind, e.g. "top" or "algo_hit"
	group string // the command without its numeric arguments
	timed        // the latency in ms
	query bool   // counts toward the query_* metrics
}

// timed is a measured value and the wall interval it was measured over.
type timed struct {
	start, end time.Time
	v          float64
}

// recorder collects one phase's timings and answer checks. Every command
// is an attempted operation; a transport error, a non-2xx status or a
// wrong answer counts it as failed.
type recorder struct {
	mu        sync.Mutex
	samples   []sample
	iters     []timed // iteration wall times, seconds
	refresh   []timed // mutation/load -> fresh pagerank answer, ms
	attempted int
	failed    int
	errs      []string
}

// call evaluates cmd, times it, and runs check on the answer.
func (r *recorder) call(ex Executor, sess, key, cmd string, query bool, check func(Resp) error) Resp {
	start := time.Now()
	resp, err := ex.Eval(sess, cmd)
	d := time.Since(start)
	if err == nil && check != nil {
		err = check(resp)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{key: key, group: cmdGroup(cmd), timed: timed{start, start.Add(d), ms(d)}, query: query})
	r.noteLocked(cmd, err)
	return resp
}

// note records an operation outcome that is not a timed command (session
// create/drop, post-run checks).
func (r *recorder) note(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteLocked(what, err)
}

func (r *recorder) noteLocked(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// iter records an iteration that started at start and took d, checks
// excluded.
func (r *recorder) iter(start time.Time, d time.Duration) {
	r.mu.Lock()
	r.iters = append(r.iters, timed{start, time.Now(), d.Seconds()})
	r.mu.Unlock()
}

// fresh records a time to fresh answer that started at start and ends now.
func (r *recorder) fresh(start time.Time) {
	now := time.Now()
	r.mu.Lock()
	r.refresh = append(r.refresh, timed{start, now, ms(now.Sub(start))})
	r.mu.Unlock()
}

// queries returns the query samples.
func (r *recorder) queries() []timed {
	var out []timed
	for _, s := range r.samples {
		if s.query {
			out = append(out, s.timed)
		}
	}
	return out
}

// byKey groups sample latencies by step kind.
func (r *recorder) byKey() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.samples {
		out[s.key] = append(out[s.key], s.v)
	}
	return out
}

// byGroup groups sample latencies by command, numeric arguments dropped,
// so the same command's timings compare across executors.
func (r *recorder) byGroup() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.samples {
		out[s.group] = append(out[s.group], s.v)
	}
	return out
}

// cmdGroup drops a command's numeric arguments (edge endpoints, k).
func cmdGroup(cmd string) string {
	var keep []string
	for _, f := range strings.Fields(cmd) {
		if _, err := strconv.ParseInt(f, 10, 64); err != nil {
			keep = append(keep, f)
		}
	}
	return strings.Join(keep, " ")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// failLater marks an already-counted operation as failed by a check that
// could only run after the measurement.
func (r *recorder) failLater(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
	}
}
