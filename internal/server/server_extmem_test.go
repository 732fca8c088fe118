package server

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// writeTruncated copies the first half of src to dst, producing an image
// whose header parses but whose sections run past the end of the file.
func writeTruncated(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data[:len(data)/2], 0o644)
}

// TestWarmStartMapped exercises the -restore flag's second path: when the
// file is an RNGM mapped CSR image, warm start binds it in place (no
// decode) as the read-only graph "g", analytics work over it, and the
// mapped bytes surface on GET /stats and GET /metrics.
func TestWarmStartMapped(t *testing.T) {
	g := gen.GNM(500, 4000, 11)
	path := filepath.Join(t.TempDir(), "g.rngm")
	if err := extmem.SaveMapped(path, graph.BuildView(g)); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}

	srv, ts := newTestServer(t, Config{}) // file IO off: warm start still works
	if err := srv.WarmStart("main", path); err != nil {
		t.Fatal(err)
	}

	r := query(t, ts.URL, "main", "ls")
	if len(r.Rows) != 1 || !strings.Contains(r.Rows[0][1], "mgraph") {
		t.Fatalf("warm-started session lists %v, want one mgraph binding", r.Rows)
	}
	r = query(t, ts.URL, "main", "algo g wcc")
	if !strings.Contains(r.Message, "component") {
		t.Fatalf("wcc over warm-started mapped graph: %q", r.Message)
	}
	query(t, ts.URL, "main", "pagerank PR g")

	if srv.MappedBytes() == 0 {
		t.Fatal("MappedBytes() = 0 after mapped warm start")
	}
	var stats struct {
		MappedBytes int64 `json:"mapped_bytes"`
	}
	if code := doJSON(t, "GET", ts.URL+"/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if stats.MappedBytes != srv.MappedBytes() {
		t.Fatalf("/stats mapped_bytes = %d, MappedBytes() = %d", stats.MappedBytes, srv.MappedBytes())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ringo_mapped_bytes") {
		t.Fatal("/metrics is missing ringo_mapped_bytes")
	}

	// A corrupt image must fail and leave no half-started session.
	bad := filepath.Join(t.TempDir(), "bad.rngm")
	if err := writeTruncated(path, bad); err != nil {
		t.Fatal(err)
	}
	if err := srv.WarmStart("other", bad); err == nil {
		t.Fatal("warm start from a truncated RNGM image succeeded")
	}
	for _, id := range srv.SessionIDs() {
		if id == "other" {
			t.Fatal("failed mapped warm start left session behind")
		}
	}
}

// TestMappedGraphGatedVerbs checks that savemapped joins the file-IO gate:
// without -allow-file-io a server refuses it like the other file verbs.
func TestMappedGraphGatedVerbs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 6 60 1")
	query(t, ts.URL, "s", "tograph G E src dst")

	var out struct {
		Error string `json:"error"`
	}
	code := doJSON(t, "POST", ts.URL+"/sessions/s/query",
		map[string]string{"cmd": "savemapped G /tmp/never.rngm"}, &out)
	if code == http.StatusOK {
		t.Fatal("savemapped ran on a server without -allow-file-io")
	}
	if !strings.Contains(out.Error, "savemapped") {
		t.Fatalf("gate error %q does not name savemapped", out.Error)
	}
}
