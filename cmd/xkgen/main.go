// Command xkgen generates the synthetic DBLP-like and XMark-like datasets
// of the evaluation and writes them as XML.
//
// Usage:
//
//	xkgen -kind dblp  -records 3000 -out dblp.xml
//	xkgen -kind xmark -records 600 -variant 0 -out xmark.xml
//
// The -freq-factor flag scales the paper's published keyword frequencies to
// the generated size (see internal/workload).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"xks/internal/datagen"
	"xks/internal/workload"
	"xks/internal/xmltree"
)

func main() {
	var (
		kind    = flag.String("kind", "dblp", "dataset kind: dblp or xmark")
		records = flag.Int("records", 1000, "number of DBLP records / XMark items")
		variant = flag.Int("variant", 0, "XMark frequency column: 0=standard, 1=data1, 2=data2")
		factor  = flag.Float64("freq-factor", 0, "keyword frequency scale factor (0 = records/20000)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output file (default stdout)")
		stats   = flag.Bool("stats", false, "print dataset statistics to stderr")
	)
	flag.Parse()

	if *factor == 0 {
		*factor = float64(*records) / 20000.0
	}

	var (
		tree *xmltree.Tree
		err  error
	)
	switch *kind {
	case "dblp":
		w := workload.DBLP()
		specs, serr := w.Specs(0, *factor)
		if serr != nil {
			fatal(serr)
		}
		tree = datagen.DBLP(datagen.DBLPConfig{Seed: *seed, NumRecords: *records, Keywords: specs})
	case "xmark":
		w := workload.XMark()
		specs, serr := w.Specs(*variant, *factor)
		if serr != nil {
			fatal(serr)
		}
		tree = datagen.XMark(datagen.XMarkConfig{Seed: *seed, Items: *records, Keywords: specs})
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}

	var w *bufio.Writer
	if *out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, ferr := os.Create(*out)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	if err = xmltree.WriteXML(w, tree.Root); err != nil {
		fatal(err)
	}
	if err = w.Flush(); err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprint(os.Stderr, analyze(tree, 10).String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkgen:", err)
	os.Exit(1)
}
