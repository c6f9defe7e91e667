// Command optiflow-graph generates, inspects and converts the graphs
// used by the demonstration and benchmarks, and renders the dataflow
// plans the algorithms build.
//
// Usage:
//
//	optiflow-graph gen -type twitter -n 50000 -seed 7 > twitter.el
//	optiflow-graph stats -p 4 < twitter.el
//	optiflow-graph stats -type grid -n 30 -m 30
//	optiflow-graph convert -directed < raw.el > normalised.el
//	optiflow-graph plan -name cc-figure
//	optiflow-graph plan -name vertexcentric-step -format dot
//	optiflow-graph plan -list
package main

import (
	"flag"
	"fmt"
	"os"

	"optiflow/internal/graph"
	"optiflow/internal/graphtool"
)

func main() {
	if len(os.Args) < 2 {
		fail("usage: optiflow-graph gen|stats|convert|plan [flags]")
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	typ := fs.String("type", "", "graph type to generate (demo, twitter, ba, rmat, er, grid, chain, star, components)")
	n := fs.Int("n", 1000, "primary size (vertices; rows for grid)")
	m := fs.Int("m", 0, "secondary size (BA edges/vertex, grid columns, RMAT edge factor, component count)")
	p := fs.Float64("prob", 0, "edge probability (er, components)")
	seed := fs.Int64("seed", 20150531, "generator seed")
	directed := fs.Bool("directed", false, "treat/generate the graph as directed")
	par := fs.Int("p", 4, "parallelism for partition balance (stats); plan parallelism (plan)")
	name := fs.String("name", "", "plan to render (plan; see -list)")
	format := fs.String("format", "explain", "plan output format: explain or dot")
	list := fs.Bool("list", false, "list available plan names (plan)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "gen":
		if *typ == "" {
			fail("gen: -type is required")
		}
		g, err := graphtool.Generate(graphtool.GenSpec{
			Type: *typ, N: *n, M: *m, P: *p, Seed: *seed, Directed: *directed,
		})
		if err != nil {
			fail("%v", err)
		}
		if err := graph.WriteEdgeList(os.Stdout, g); err != nil {
			fail("writing edge list: %v", err)
		}

	case "stats":
		var g *graph.Graph
		var err error
		if *typ != "" {
			g, err = graphtool.Generate(graphtool.GenSpec{
				Type: *typ, N: *n, M: *m, P: *p, Seed: *seed, Directed: *directed,
			})
		} else {
			g, err = graph.ReadEdgeList(os.Stdin, *directed)
		}
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(graphtool.Stats(g, *par))

	case "convert":
		msg, err := graphtool.Convert(os.Stdin, os.Stdout, *directed)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintln(os.Stderr, msg)

	case "plan":
		if *list {
			for _, n := range planNames() {
				fmt.Println(n)
			}
			return
		}
		if *name == "" {
			fail("plan: -name is required (or -list to see the catalogue)")
		}
		out, err := renderPlan(*name, *format, *par)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(out)

	default:
		fail("unknown command %q (want gen, stats, convert or plan)", cmd)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "optiflow-graph: "+format+"\n", args...)
	os.Exit(1)
}
