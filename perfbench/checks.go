package main

import (
	"fmt"
	"strconv"
	"strings"
)

// The checks compare an answer with the value the benchmark derived from
// its own generated inputs. Each returns nil on a match.

func wantMsg(want string) func(Resp) error {
	return func(r Resp) error {
		if r.Message != want {
			return fmt.Errorf("got %q, want %q", r.Message, want)
		}
		return nil
	}
}

func wantPrefix(want string) func(Resp) error {
	return func(r Resp) error {
		if !strings.HasPrefix(r.Message, want) {
			return fmt.Errorf("got %q, want prefix %q", r.Message, want)
		}
		return nil
	}
}

func rowsMsg(name string, n int) string { return fmt.Sprintf("%s: %d rows", name, n) }

func graphMsg(name string, nodes, edges int) string {
	return fmt.Sprintf("%s: %d nodes, %d edges", name, nodes, edges)
}

func scoredMsg(name string, nodes int) string { return fmt.Sprintf("%s: %d nodes scored", name, nodes) }

func wccMsg(g GraphRef) string {
	return fmt.Sprintf("%d weak components, largest %d", g.WCCCount, g.WCCLargest)
}

func coreMsg(g GraphRef) string {
	return fmt.Sprintf("3-core: %d nodes, %d edges", g.CoreNodes, g.CoreEdges)
}

func triMsg(g GraphRef) string { return fmt.Sprintf("%d triangles", g.Triangles) }

// parseTop parses the scores of top's rows (rank, node, score).
func parseTop(r Resp) (scores []float64, err error) {
	for i, row := range r.Rows {
		if len(row) != 3 {
			return nil, fmt.Errorf("row %d: want 3 cells, got %d", i, len(row))
		}
		if row[0] != strconv.Itoa(i+1) {
			return nil, fmt.Errorf("row %d: rank %q", i, row[0])
		}
		_, err1 := strconv.ParseInt(row[1], 10, 64)
		sc, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("row %d: unparsable %v", i, row)
		}
		scores = append(scores, sc)
	}
	return scores, nil
}

// checkTop accepts k rows (or every node when fewer) of scores in (0,1]
// in non-increasing order.
func checkTop(k, nodes int) func(Resp) error {
	return func(r Resp) error {
		scores, err := parseTop(r)
		if err != nil {
			return err
		}
		if want := min(k, nodes); len(scores) != want {
			return fmt.Errorf("top: %d rows, want %d", len(scores), want)
		}
		for i, s := range scores {
			if s <= 0 || s > 1 {
				return fmt.Errorf("top: score %v out of (0,1]", s)
			}
			if i > 0 && s > scores[i-1] {
				return fmt.Errorf("top: scores not descending at rank %d", i+1)
			}
		}
		return nil
	}
}

// checkFullScores accepts a top listing of every node whose scores sum to
// 1 within the rounding of top's six printed decimals.
func checkFullScores(nodes int) func(Resp) error {
	return func(r Resp) error {
		if err := checkTop(nodes, nodes)(r); err != nil {
			return err
		}
		scores, _ := parseTop(r)
		var sum float64
		for _, s := range scores {
			sum += s
		}
		tol := 1e-6 + 0.5e-6*float64(nodes)
		if d := sum - 1; d > tol || d < -tol {
			return fmt.Errorf("pagerank scores sum to %.6f, want 1 +- %.6f", sum, tol)
		}
		return nil
	}
}

// checkShow accepts n rows of a table of total rows with cols columns.
func checkShow(n, total, cols int) func(Resp) error {
	return func(r Resp) error {
		if len(r.Rows) != n || r.Trunc != total-n {
			return fmt.Errorf("show: %d rows, %d truncated; want %d, %d", len(r.Rows), r.Trunc, n, total-n)
		}
		for _, row := range r.Rows {
			if len(row) != cols {
				return fmt.Errorf("show: %d cells, want %d", len(row), cols)
			}
		}
		return nil
	}
}

// sameRows reports whether two answers carry identical rows.
func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], "\t") != strings.Join(b[i], "\t") {
			return false
		}
	}
	return true
}
