// Command experiments regenerates the paper's tables and figures. Run a
// single experiment by id or everything in paper order.
//
// Usage:
//
//	experiments [-scale quick|full] [tableI|tableII|tableIII|periodicity|
//	             figure4..7|figure10|figure11|figure12|figurePartial|
//	             figure13|production|ablations|all]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	scaleArg := flag.String("scale", "quick", "experiment scale: quick|full")
	flag.Parse()

	var sc experiments.Scale
	switch *scaleArg {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		log.Fatalf("experiments: unknown scale %q", *scaleArg)
	}

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	run := func(r *experiments.Report, err error) {
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		if err := r.Render(os.Stdout); err != nil {
			log.Fatalf("experiments: %v", err)
		}
	}

	switch which {
	case "all":
		reports, err := experiments.All(sc)
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		for _, r := range reports {
			run(r, nil)
		}
	case "ablations":
		for _, e := range experiments.Ablations {
			run(e.Run(sc))
		}
	default:
		for _, e := range experiments.Paper {
			if e.ID == which {
				run(e.Run(sc))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", which)
		os.Exit(2)
	}
}
