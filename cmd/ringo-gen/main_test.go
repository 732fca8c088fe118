package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringo/internal/core"
	"ringo/internal/gen"
	"ringo/internal/repl"
)

// TestPostsLoadAsWritten generates a posts file and loads it, unchanged,
// through the shell's load verb with the posts schema.
func TestPostsLoadAsWritten(t *testing.T) {
	out := filepath.Join(t.TempDir(), "posts.tsv")
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = []string{"ringo-gen", "-kind", "posts", "-out", out, "-questions", "200", "-seed", "3"}
	flag.CommandLine = flag.NewFlagSet("ringo-gen", flag.ContinueOnError)
	main()

	cfg := gen.DefaultSOConfig()
	cfg.Questions, cfg.Seed = 200, 3
	want, err := gen.StackOverflowPosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]string, len(gen.SOSchema))
	for i, c := range gen.SOSchema {
		cols[i] = c.Name + ":" + c.Type.String()
	}
	res, err := repl.New(core.NewWorkspace()).Eval("load P " + out + " " + strings.Join(cols, " "))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if msg := fmt.Sprintf("P: %d rows", want.NumRows()); res.Message != msg {
		t.Fatalf("load says %q, want %q", res.Message, msg)
	}
}
