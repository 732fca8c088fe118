package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of compare mode.
const (
	Improved   = "improved"
	NoWorse    = "no worse"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// metricSpec is a metric's direction and regression bound (a share of the
// parent's median; 0 when the benchmark fixes none).
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Comparison is one metric of one workload compared between two sets of
// runs: A is the parent, B the change.
type Comparison struct {
	MedA, Q1A, Q3A float64
	MedB, Q1B, Q3B float64
	Wins, Pairs    int
	Verdict        string
}

// compareRuns applies the benchmark's acceptance rule. The change improved
// the metric when it wins at least nine tenths of the pairs (ties count for
// neither side) and the medians differ, in its favour, by more than the
// parent's own quartile spread. Otherwise it is no worse when its median is
// within bound of the parent's; worse when beyond it. When the parent's
// spread exceeds the bound the metric is unresolved, unless every run of
// the change beats every run of the parent. Without a fixed bound the
// parent's relative spread serves as the bound.
func compareRuns(a, b []float64, lowerBetter bool, bound float64) Comparison {
	var c Comparison
	c.Q1A, c.MedA, c.Q3A = quartiles(a)
	c.Q1B, c.MedB, c.Q3B = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		if better(b[i], a[i]) {
			c.Wins++
		}
	}
	spread := c.Q3A - c.Q1A
	if bound <= 0 && c.MedA != 0 {
		bound = spread / math.Abs(c.MedA)
	}
	if c.Pairs > 0 && float64(c.Wins) >= 0.9*float64(c.Pairs) &&
		better(c.MedB, c.MedA) && math.Abs(c.MedB-c.MedA) > spread {
		c.Verdict = Improved
		return c
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if c.MedA == 0 {
		c.Verdict = Unresolved
		return c
	}
	if spread/math.Abs(c.MedA) > bound && !allBetter {
		c.Verdict = Unresolved
		return c
	}
	worse := (c.MedB - c.MedA) / math.Abs(c.MedA)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		c.Verdict = Worse
	} else {
		c.Verdict = NoWorse
	}
	return c
}

// compareMain implements "perfbench compare [-bench FILE] DIR_A DIR_B".
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-bench FILE] DIR_A DIR_B")
	}
	specs, err := readSpecs(*bench)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(a) {
		ra, rb := a[key], b[key]
		if len(rb) == 0 {
			continue
		}
		fmt.Printf("== %s (A: %d runs, B: %d runs)\n", key, len(ra), len(rb))
		fmt.Printf("%-32s %28s %28s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
		names := map[string]bool{}
		for _, r := range ra {
			for n := range r.Result.Metrics {
				names[n] = true
			}
		}
		for _, n := range sortedKeys(names) {
			va, vb := pairValues(ra, rb, n)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sp := specs[n]
			c := compareRuns(va, vb, sp.Better != "higher", sp.Bound)
			fmt.Printf("%-32s %28s %28s %3d/%-3d  %s\n", n,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.MedA, c.Q1A, c.Q3A),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.MedB, c.Q1B, c.Q3B),
				c.Wins, c.Pairs, c.Verdict)
		}
	}
	return nil
}

// pairValues lines the two sides' values of metric n up by seed: runs of
// the same seed form a pair, in seed order. Sides run on disjoint seeds
// pair up by position in seed order instead.
func pairValues(ra, rb []Record, n string) (va, vb []float64) {
	bySeed := func(rs []Record) map[int64][]float64 {
		m := map[int64][]float64{}
		for _, r := range rs {
			if v, ok := r.Result.Metrics[n]; ok {
				m[r.Meta.Seed] = append(m[r.Meta.Seed], v.Value)
			}
		}
		return m
	}
	ma, mb := bySeed(ra), bySeed(rb)
	seeds := sortedKeys(ma)
	for _, s := range seeds {
		xs, ys := ma[s], mb[s]
		for i := 0; i < len(xs) && i < len(ys); i++ {
			va, vb = append(va, xs[i]), append(vb, ys[i])
		}
	}
	if len(va) > 0 {
		return va, vb
	}
	flat := func(m map[int64][]float64) (out []float64) {
		for _, s := range sortedKeys(m) {
			out = append(out, m[s]...)
		}
		return out
	}
	va, vb = flat(ma), flat(mb)
	k := min(len(va), len(vb))
	return va[:k], vb[:k]
}

func readSpecs(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricSpec{}
	for _, s := range append(def.EndToEnd, def.PerLayer...) {
		out[s.Name] = s
	}
	return out, nil
}

// readRecords reads every file in dir: -out records, or captured run
// output (a "meta" line and the result line). They are grouped by
// workload and trace mode.
func readRecords(dir string) (map[string][]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]Record{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		r, err := parseRecord(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		key := fmt.Sprintf("%s trace=%d", r.Meta.Workload, r.Meta.Trace)
		out[key] = append(out[key], r)
	}
	return out, nil
}

func parseRecord(b []byte) (Record, error) {
	var r Record
	if json.Unmarshal(b, &r) == nil && r.Meta.Workload != "" {
		return r, nil
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m, ok := strings.CutPrefix(line, "meta "); ok {
			if err := json.Unmarshal([]byte(m), &r.Meta); err != nil {
				return r, err
			}
		} else if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &r.Result); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	if r.Meta.Workload == "" {
		return r, fmt.Errorf("no meta line")
	}
	return r, nil
}

func sortedKeys[K int64 | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
