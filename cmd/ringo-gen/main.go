// Command ringo-gen writes synthetic datasets to disk for use with the
// shell and the examples: R-MAT edge lists with the degree skew of the
// paper's benchmark graphs, or StackOverflow-like posts tables for the §4.1
// demo.
//
// Usage:
//
//	ringo-gen -kind rmat  -out edges.tsv -scale 16 -edges 1000000 [-seed 1]
//	ringo-gen -kind posts -out posts.tsv -questions 10000 [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"ringo"
)

func main() {
	kind := flag.String("kind", "rmat", "dataset kind: rmat or posts")
	out := flag.String("out", "", "output TSV path (required)")
	scale := flag.Int("scale", 16, "rmat: log2 of the node id space")
	edges := flag.Int64("edges", 1_000_000, "rmat: number of edge rows")
	questions := flag.Int("questions", 10_000, "posts: number of questions")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "ringo-gen: -out is required")
		os.Exit(2)
	}

	var t *ringo.Table
	var err error
	switch *kind {
	case "rmat":
		t = ringo.GenRMATTable(*scale, *edges, *seed)
	case "posts":
		cfg := ringo.DefaultSOConfig()
		cfg.Questions = *questions
		cfg.Seed = *seed
		t, err = ringo.GenStackOverflowPosts(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringo-gen: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "ringo-gen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	// Headerless, like every file the shell's load verb reads.
	if err := t.SaveTSVFile(*out, false); err != nil {
		fmt.Fprintf(os.Stderr, "ringo-gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d rows to %s\n", t.NumRows(), *out)
}
