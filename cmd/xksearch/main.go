// Command xksearch runs a keyword query against an XML document, a
// shredded store, or a whole directory of XML files and prints the
// meaningful fragments.
//
// Usage:
//
//	xksearch -file doc.xml [-algo validrtf|maxmatch|raw] [-slca] [-rank]
//	         [-limit N] [-cursor tok] [-timeout 5s] [-best-effort]
//	         [-format ascii|xml|snippet] [-stream] "keyword query"
//	xksearch -store doc.xks "keyword query"          # search a shredded store
//	xksearch -dir corpus/ -rank -limit 10 "query"    # search a directory-corpus
//
// With -dir the tool searches every *.xml file as one corpus (the same
// corpus xkserver -dir serves) and labels each fragment with its source
// document. Query terms may carry label predicates: "title:xml author:
// keyword". -limit pages through large result sets: when more results
// remain the tool prints an opaque resume token, and -cursor continues the
// scroll from it.
// -timeout bounds the search, which aborts mid-pipeline with an error once
// exceeded — unless -best-effort is set, in which case the fragments
// finished in time are printed with a TRUNCATED marker. -stream switches
// the output to NDJSON, one fragment object per line as the pipeline
// materializes it, followed by a trailer record carrying the cursor and
// stats. Interrupting the tool (Ctrl-C) cancels the search either way.
// -explain traces the search and prints the per-stage span tree — wall
// times, candidate counts, per-document fan-out — to stderr after the
// results (the same tree /search?explain=1 returns as JSON).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"iter"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"xks"
	"xks/internal/httpapi"
	"xks/internal/service"
	"xks/internal/trace"
)

func main() {
	var (
		file    = flag.String("file", "", "XML document to search")
		storeF  = flag.String("store", "", "shredded store file to search instead of an XML document")
		dir     = flag.String("dir", "", "directory of *.xml files to search as one corpus")
		algo    = flag.String("algo", "validrtf", "pruning algorithm: validrtf, maxmatch or raw")
		slca    = flag.Bool("slca", false, "restrict fragment roots to smallest LCAs")
		rankIt  = flag.Bool("rank", false, "order fragments by relevance score")
		limit   = flag.Int("limit", 0, "maximum number of fragments (0 = all)")
		cursor  = flag.String("cursor", "", "resume a previous page from its printed cursor token")
		timeout = flag.Duration("timeout", 0, "abort the search after this long (0 = no deadline)")
		bestEff = flag.Bool("best-effort", false, "with -timeout: print the fragments finished in time instead of failing")
		stream  = flag.Bool("stream", false, "emit NDJSON fragments as they materialize, plus a trailer record")
		format  = flag.String("format", "ascii", "output format: ascii, xml or snippet")
		exact   = flag.Bool("exact-content", false, "compare exact content sets instead of (min,max) features")
		stats   = flag.Bool("stats", false, "print search statistics")
		explain = flag.Bool("explain", false, "trace the search and print the per-stage span tree to stderr")
	)
	flag.Parse()
	sources := 0
	for _, s := range []string{*file, *storeF, *dir} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: xksearch -file doc.xml | -store doc.xks | -dir corpus/ [flags] \"keyword query\"")
		flag.PrintDefaults()
		os.Exit(2)
	}

	req := xks.Request{
		Query:        strings.Join(flag.Args(), " "),
		Rank:         *rankIt,
		Limit:        *limit,
		Cursor:       xks.Cursor(*cursor),
		ExactContent: *exact,
	}
	if *bestEff {
		req.Budget = xks.BestEffort
	}
	switch strings.ToLower(*algo) {
	case "validrtf":
		req.Algorithm = xks.ValidRTF
	case "maxmatch":
		req.Algorithm = xks.MaxMatch
	case "raw":
		req.Algorithm = xks.RawRTF
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if *slca {
		req.Semantics = xks.SLCAOnly
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tr *trace.Trace
	if *explain {
		tr = trace.New("search")
		ctx = trace.NewContext(ctx, tr)
		defer func() {
			tr.Finish()
			fmt.Fprint(os.Stderr, tr.Root().Text())
		}()
	}

	// Resolve the source into the one backend the HTTP server serves too;
	// buffered output is its Search, -stream prints each fragment of its
	// Stream the moment it materializes.
	var backend service.Backend
	if *dir != "" {
		corpus, err := xks.LoadDir(*dir)
		if err != nil {
			fatal(err)
		}
		backend = corpus
	} else {
		var (
			engine *xks.Engine
			err    error
			path   string
		)
		if *storeF != "" {
			path = *storeF
			engine, err = xks.OpenStore(path)
		} else {
			path = *file
			engine, err = xks.LoadFile(path)
		}
		if err != nil {
			fatal(err)
		}
		// Named by its base name, as xkserver names a -file or -store
		// document, so both transports emit one format.
		backend = service.SingleDoc{Name: filepath.Base(path), Engine: engine}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *stream {
		streamOut(backend.Stream(ctx, req))
		return
	}
	res, err := backend.Search(ctx, req)
	if err != nil {
		fatal(err)
	}
	frags, showDoc := res.Fragments, *dir != ""
	if *stats {
		fmt.Printf("keywords: %v\nkeyword nodes: %d\nfragments: %d\nelapsed: %v\n",
			res.Stats.Keywords, res.Stats.KeywordNodes, res.Stats.NumLCAs, res.Stats.Elapsed)
		st := res.Stats.Stages
		fmt.Printf("stages: plan=%v candidates=%v select=%v materialize=%v\n\n",
			st.Plan, st.Candidates, st.Select, st.Materialize)
	}
	if len(frags) == 0 && !res.Truncated {
		fmt.Println("no fragments found")
		return
	}
	for i, f := range frags {
		kind := "LCA"
		if f.IsSLCA {
			kind = "SLCA"
		}
		fmt.Printf("--- fragment %d: root %s (%s) [%s]", i+1, f.Root, f.RootLabel, kind)
		if req.Rank {
			fmt.Printf(" score=%.3f", f.Score)
		}
		if showDoc {
			fmt.Printf(" doc=%s", f.Document)
		}
		fmt.Println()
		switch *format {
		case "xml":
			fmt.Print(f.XML())
		case "snippet":
			fmt.Println(f.Snippet())
		default:
			fmt.Print(f.ASCII())
		}
		fmt.Println()
	}
	if res.Truncated {
		fmt.Println("TRUNCATED: the deadline expired before the page finished")
	}
	if res.Cursor != "" {
		fmt.Printf("more results: rerun with -cursor %s\n", res.Cursor)
	}
}

// streamOut emits the same NDJSON wire shapes the HTTP stream=1 endpoint
// serves (httpapi.Fragment lines, one httpapi.StreamTrailer record), so
// consumers parse one format regardless of transport.
func streamOut(seq iter.Seq2[xks.CorpusFragment, error], trailer func() *xks.Results) {
	enc := json.NewEncoder(os.Stdout)
	for f, err := range seq {
		if err != nil {
			fatal(err)
		}
		enc.Encode(httpapi.ToFragment(f, false))
	}
	enc.Encode(httpapi.ToStreamTrailer(trailer()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xksearch:", err)
	os.Exit(1)
}
