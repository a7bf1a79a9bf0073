// Command xkshred shreds an XML document into the three-table binary store
// (the embedded substitute for the paper's PostgreSQL layout) or inspects
// an existing store file.
//
// Usage:
//
//	xkshred -in doc.xml -out doc.xks        # shred and persist
//	xkshred -inspect doc.xks                # table statistics
//	xkshred -inspect doc.xks -keyword xml   # posting list lookup
package main

import (
	"flag"
	"fmt"
	"os"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/store"
)

func main() {
	var (
		in      = flag.String("in", "", "XML document to shred")
		out     = flag.String("out", "", "store file to write")
		inspect = flag.String("inspect", "", "store file to inspect")
		keyword = flag.String("keyword", "", "with -inspect: print the posting list of this keyword")
	)
	flag.Parse()

	switch {
	case *inspect != "":
		s, err := store.OpenFile(*inspect, store.OpenOptions{})
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		if *keyword != "" {
			// The word is analyzed as a query keyword is (query.Parse), so
			// "XML" finds the postings a search for it reads.
			an := analysis.New()
			ix := s.BuildIndex()
			ids := ix.LookupIDs(an.Normalize(*keyword))
			fmt.Printf("keyword %q: %d nodes\n", *keyword, len(ids))
			var code dewey.Code
			for _, id := range ids {
				code = ix.Table().AppendCode(code[:0], id)
				fmt.Printf("  %s (%s)\n", code, s.LabelAt(int(id)))
			}
			return
		}
		fmt.Printf("element rows: %d\nlabel rows:   %d\nvalue rows:   %d\ndistinct keywords: %d\n",
			s.NumNodes(), s.NumLabels(), s.NumValues(), len(s.Keywords()))
	case *in != "" && *out != "":
		doc, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		rows, err := index.AnalyzeBytes(doc, analysis.New())
		if err != nil {
			fatal(err)
		}
		s := store.FromRows(rows)
		if err := s.SaveFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("shredded %d nodes into %s (%d value rows, %d labels)\n",
			s.NumNodes(), *out, s.NumValues(), s.NumLabels())
	default:
		fmt.Fprintln(os.Stderr, "usage: xkshred -in doc.xml -out doc.xks | xkshred -inspect doc.xks [-keyword w]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xkshred:", err)
	os.Exit(1)
}
