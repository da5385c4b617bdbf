// Command sosviz simulates a DSL topology and renders the realized system
// as Graphviz DOT (default) with per-component colors and port managers
// drawn as boxes, suitable for `dot -Tsvg` or `neato -Tpng`.
//
// Usage:
//
//	sosviz [-nodes N] [-rounds N] [-seed N] [-o out.dot] file.sos
package main

import (
	"flag"
	"fmt"
	"os"

	"sosf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sosviz:", err)
		os.Exit(1)
	}
}

func run() error {
	nodes := flag.Int("nodes", 0, "population size (default: the file's nodes option)")
	rounds := flag.Int("rounds", 150, "rounds to simulate before rendering")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: sosviz [flags] file.sos")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	opts := []sosf.Option{sosf.WithRounds(*rounds), sosf.WithSeed(*seed)}
	if *nodes > 0 {
		opts = append(opts, sosf.WithNodes(*nodes))
	}
	sys, err := sosf.New(string(src), opts...)
	if err != nil {
		return err
	}
	if _, err := sys.Step(*rounds); err != nil {
		return err
	}
	dot := sys.DOT()
	if *out == "" {
		fmt.Print(dot)
		return nil
	}
	return os.WriteFile(*out, []byte(dot), 0o644)
}
