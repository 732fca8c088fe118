// Command perfbench is Ringo's end-to-end benchmark. It spawns the
// ringo-server binary built from this tree, drives it over loopback HTTP
// with closed-loop clients running one of four analyst workloads, checks
// every answer against values derived from the generated inputs, and
// prints the end-to-end metrics. With -trace 1 it also replays the
// workload in-process, timing each layer's public functions inside spans,
// and prints the per-layer metrics instead. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench -server-bin BIN -workload explore -seed 1 -seconds 10 -trace 0
//	perfbench compare DIR_A DIR_B
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 3

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Meta identifies what a result was measured on, so records from
// different hosts or inputs are never compared.
type Meta struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        int                `json:"trace"`
	Clients      int                `json:"clients"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"nproc"`
	GoVersion    string             `json:"go_version"`
	Commit       string             `json:"commit"`
	SourceDigest string             `json:"source_digest"`
	ServerFlags  []string           `json:"server_flags"`
	Dataset      map[string]int     `json:"dataset"`
	Samples      map[string]int     `json:"samples"`
	Percentiles  map[string]float64 `json:"percentiles"`
	TailBeyond   map[string]int     `json:"tail_beyond"`
	ErrorFrac    float64            `json:"error_frac"`
	// StealS is CPU time the hypervisor took from this host during the
	// measured window; a large value marks a run disturbed by neighbours.
	StealS float64  `json:"steal_s"`
	Errors []string `json:"errors,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// Record is what -out writes: the result with its metadata.
type Record struct {
	Meta   Meta   `json:"meta"`
	Result Result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	wlName := flag.String("workload", "", "workload: explore, serve_reads, update_query or reopen")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced in-process replay, print per-layer metrics")
	bin := flag.String("server-bin", ".bench_build/ringo-server", "ringo-server binary")
	out := flag.String("out", "", "also write the result with its metadata to this file")
	flag.Parse()

	wl := findWorkload(*wlName)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wlName, *seconds, *trace)
		os.Exit(2)
	}
	rec, err := run(wl, *seed, *seconds, *trace == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(rec.Meta)
	fmt.Println("meta", string(meta))
	for _, e := range rec.Meta.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
}

// run performs one benchmark run of wl.
func run(wl *workload, seed int64, seconds int, traced bool, bin string) (*Record, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	bb := filepath.Join(root, ".bench_build")
	work := filepath.Join(bb, "work", fmt.Sprintf("%s-%d-%d", wl.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}

	// The traced replay's probes reach every layer, so it needs every input.
	d, err := writeDataset(work, seed, wl.posts || traced, wl.triangles || traced)
	if err != nil {
		return nil, err
	}
	var muts []Mutation
	if wl.name == "update_query" {
		muts = mutationStream(d, 200*seconds+100)
	}

	meta := Meta{
		Workload: wl.name, Seed: seed, Seconds: seconds, Clients: wl.clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: gitCommit(root), SourceDigest: sourceDigest(root), ServerFlags: serverFlags,
		Dataset: map[string]int{
			"posts_rows": d.PostsRows, "edge_rows": d.EdgeRows,
			"graph_nodes": d.Ref.Nodes, "graph_edges": d.Ref.Edges, "mutations": len(muts),
		},
		Samples: map[string]int{}, Percentiles: map[string]float64{}, TailBeyond: map[string]int{},
	}
	if traced {
		meta.Trace = 1
	}

	mon := startStealMon()
	defer mon.halt()

	// Set up several times and keep the last server; setup_s is the median.
	setupRec := &recorder{}
	var setups []timed
	var srv *serverProc
	defer func() { srv.stop() }()
	var w *wctx
	for rep := 0; rep < setupReps; rep++ {
		srv.stop()
		w = &wctx{d: d, rec: setupRec, work: work, muts: muts}
		t := time.Now()
		srv, err = spawnServer(bin, filepath.Join(bb, "server.log"))
		if err != nil {
			return nil, err
		}
		w.ex = srv.exec
		if err := wl.setup(w); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, timed{t, time.Now(), time.Since(t).Seconds()})
	}

	// Measure.
	w.rec = &recorder{}
	pid := srv.cmd.Process.Pid
	var acc statsAcc
	if traced {
		if err := acc.begin(srv); err != nil {
			return nil, err
		}
		w.beforeDrop = func() { acc.beforeDrop(srv) }
	}
	cpu0, _ := cpuSeconds(pid)
	self0 := selfCPUSeconds()
	steal0 := stealSeconds()
	t0 := time.Now()
	wl.run(w, t0.Add(time.Duration(seconds)*time.Second))
	t1 := time.Now()
	cpu1, _ := cpuSeconds(pid)
	self1 := selfCPUSeconds()
	meta.StealS = stealSeconds() - steal0
	mon.halt()
	if traced {
		if err := acc.end(srv); err != nil {
			return nil, err
		}
	}
	if wl.final != nil {
		wl.final(w)
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	srv.stop()

	rec := w.rec
	attempted := rec.attempted + setupRec.attempted
	failed := rec.failed + setupRec.failed
	meta.Errors = append(setupRec.errs, rec.errs...)

	var metrics map[string]Metric
	if !traced {
		metrics = endToEnd(wl, rec, mon, setups, t0, t1, rss, &meta)
	} else {
		lr, err := replay(wl, d, muts, work, seconds)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		attempted += lr.rec.attempted
		failed += lr.rec.failed
		meta.Errors = append(meta.Errors, lr.rec.errs...)
		iters, _ := mon.calm(rec.iters)
		metrics = perLayer(wl, rec, iters, &acc, lr, cpu1-cpu0, self1-self0, &meta)
		if err := lr.tr.WriteFile(filepath.Join(bb, fmt.Sprintf("trace-%s-%d.json", wl.name, seed))); err != nil {
			return nil, err
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (too few samples)", name)
		}
	}
	meta.ErrorFrac = float64(failed) / float64(max(attempted, 1))
	return &Record{Meta: meta, Result: Result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics,
	}}, nil
}

// endToEnd computes the tracing-off metrics. Timings taken while the
// hypervisor stole CPU from this host are set aside (see stealMon) unless
// most of the run was disturbed.
func endToEnd(wl *workload, rec *recorder, mon *stealMon, setups []timed, t0, t1 time.Time, rss float64, meta *Meta) map[string]Metric {
	all := rec.queries()
	q, calmQ := mon.calm(all)
	rf, _ := mon.calm(rec.refresh)
	it, _ := mon.calm(rec.iters)
	st, _ := mon.calm(setups)
	q, rf = sortedCopy(q), sortedCopy(rf)
	secs := t1.Sub(t0).Seconds()
	if cs := mon.calmSeconds(t0, t1); calmQ && cs > 0 {
		secs = cs
	}
	meta.Samples["queries"] = len(all)
	meta.Samples["queries_used"] = len(q)
	meta.Samples["refreshes"] = len(rec.refresh)
	meta.Samples["refreshes_used"] = len(rf)
	meta.Samples["iterations"] = len(rec.iters)
	meta.Samples["iterations_used"] = len(it)
	meta.Percentiles["query_tail_ms"] = wl.tailQuery
	meta.Percentiles["refresh_tail_ms"] = wl.tailRefresh
	meta.TailBeyond["query_tail_ms"] = beyond(len(q), wl.tailQuery)
	meta.TailBeyond["refresh_tail_ms"] = beyond(len(rf), wl.tailRefresh)
	return map[string]Metric{
		"setup_s":         {median(st), "s"},
		"pipeline_s":      {median(it), "s"},
		"query_p50_ms":    {quantile(q, 0.5), "ms"},
		"query_tail_ms":   {quantile(q, wl.tailQuery/100), "ms"},
		"queries_per_s":   {float64(len(q)) / secs, "1/s"},
		"refresh_p50_ms":  {quantile(rf, 0.5), "ms"},
		"refresh_tail_ms": {quantile(rf, wl.tailRefresh/100), "ms"},
		"server_rss_mb":   {rss, "MB"},
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the tree, so a
// record identifies the code it measured even without git.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if de.IsDir() && (de.Name() == ".bench_build" || de.Name() == ".git") {
			return filepath.SkipDir
		}
		if n := de.Name(); !de.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
