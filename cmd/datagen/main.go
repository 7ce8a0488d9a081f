// Command datagen generates the paper's synthetic datasets (§4.1.2) as
// edge-list files and inspects their degree distributions.
//
// Usage:
//
//	datagen -preset facebook -out fb.el
//	datagen -scale 18 -edgefactor 16 -seed 7 -out g500.el
//	datagen -preset twitter -stats
//	datagen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"graphmaze/internal/datasets"
	"graphmaze/internal/graph"
)

func main() {
	var (
		preset     = flag.String("preset", "", "named dataset stand-in (see -list)")
		list       = flag.Bool("list", false, "list dataset presets")
		scale      = flag.Int("scale", 0, "RMAT scale for ad-hoc generation (vertices = 2^scale)")
		edgeFactor = flag.Int("edgefactor", 16, "edges per vertex for ad-hoc generation")
		seed       = flag.Int64("seed", 1, "generator seed")
		prepName   = flag.String("prep", "pagerank", "preparation: pagerank|bfs|triangle")
		out        = flag.String("out", "", "write an edge-list file")
		stats      = flag.Bool("stats", false, "print degree-distribution statistics")
	)
	flag.Parse()

	if *list {
		for _, p := range datasets.Presets() {
			kind := "graph"
			if p.Ratings {
				kind = "ratings"
			}
			fmt.Printf("  %-12s (%s, scale %d)  %s\n", p.Name, kind, p.Scale, p.Description)
		}
		return
	}

	prep, err := parsePrep(*prepName)
	if err != nil {
		fatal(err)
	}

	var g *graph.CSR
	switch {
	case *preset != "":
		p, err := datasets.ByName(*preset)
		if err != nil {
			fatal(err)
		}
		if *scale != 0 {
			p = p.WithScale(*scale)
		}
		if p.Ratings {
			bp, err := p.BuildRatings()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s: %d users × %d items, %d ratings\n", p.Name, bp.NumUsers, bp.NumItems, bp.NumRatings())
			if *stats {
				fmt.Println("item degree distribution:")
				fmt.Print(graph.FormatHistogram(graph.DegreeHistogram(bp.ByItem.OutDegrees())))
			}
			if *out != "" {
				fatal(fmt.Errorf("datagen: rating presets cannot be written as plain edge lists"))
			}
			return
		}
		g, err = p.Build(prep)
		if err != nil {
			fatal(err)
		}
	case *scale > 0:
		var err error
		g, err = datasets.Generate(*scale, *edgeFactor, *seed, prep)
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("graph: %d vertices, %d edges (%s prep)\n", g.NumVertices, g.NumEdges(), *prepName)
	if *stats {
		st := graph.ComputeDegreeStats(g.OutDegrees())
		fmt.Printf("degrees: min=%d max=%d mean=%.2f median=%d p99=%d gini=%.3f\n",
			st.Min, st.Max, st.Mean, st.Median, st.P99, st.GiniCoefficient)
		fmt.Print(graph.FormatHistogram(graph.DegreeHistogram(g.OutDegrees())))
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := datasets.WriteEdgeList(f, g); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func parsePrep(name string) (datasets.Prep, error) {
	switch name {
	case "pagerank":
		return datasets.PrepPageRank, nil
	case "bfs":
		return datasets.PrepBFS, nil
	case "triangle":
		return datasets.PrepTriangle, nil
	default:
		return 0, fmt.Errorf("datagen: unknown prep %q (pagerank|bfs|triangle)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
