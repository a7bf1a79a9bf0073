// Command xkserver serves keyword search over an XML document, a shredded
// store, or a whole directory of XML files as a JSON HTTP API backed by
// the serving layer (internal/service): a sharded LRU query cache with
// generation-based invalidation, singleflight collapsing of concurrent
// identical queries, and live server metrics. Directory corpora execute
// queries through the staged pipeline (internal/exec) — per-document
// workers produce lightweight candidates for their windows, one selection
// picks the page from them, and only the fragments it returns are assembled.
//
// Usage:
//
//	xkserver -file doc.xml [-addr :8080] [-cache 1024]
//	xkserver -store doc.xks [-mmap auto|on|off] [-addr :8080] [-cache 1024]
//	xkserver -dir corpus/ [-addr :8080] [-cache 1024] [-workers 8]
//
// With -store, a format-v3 file is mapped read-only by default (-mmap
// auto): the posting payloads stay on disk and page in on demand, so cold
// open is near zero-parse. -mmap off copies the file onto the heap; -mmap
// on fails instead of falling back where mapping is unsupported. The open
// time and byte split are logged at startup and exported on /metrics as
// xks_store_open_seconds / xks_store_mapped_bytes / xks_store_heap_bytes.
//
// Every request runs under its own context: a disconnecting client or an
// exceeded timeout= deadline (default and cap: 30s) cancels the pipeline
// mid-stream. limit= pages through large result sets via the opaque
// generation-aware "cursor" token in responses (pass it back as cursor=;
// a cursor whose snapshot is gone comes back 410 Gone, and offset= is a
// 400: the cursor is the only way to page).
// stream=1 switches /search to NDJSON chunked output — one fragment per
// line as the pipeline materializes it, a trailer record carrying the
// cursor and stats — and budget=best-effort converts a mid-page deadline
// into a truncated 200 instead of a 504.
//
// Observability: explain=1 on /search returns the per-stage trace span
// tree, GET /metrics serves Prometheus text exposition, and every request
// logs one structured (JSON) access line with its X-Request-Id.
// -slow-query logs the full explain tree of searches slower than the
// threshold; -debug-addr serves net/http/pprof on a separate listener.
//
// Shutdown: SIGINT/SIGTERM stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
//
// Endpoints:
//
//	GET /search?q=keyword+query[&doc=name][&algo=validrtf|maxmatch|raw]
//	           [&slca=1][&rank=1][&limit=N][&cursor=tok][&timeout=dur]
//	           [&budget=best-effort][&snippets=1][&stream=1][&explain=1]
//	GET /documents
//	GET /metrics
//	GET /healthz
//	POST /append   (with -allow-writes)
//	POST /compact  (with -allow-writes)
//
// Writes: -allow-writes exposes POST /append (land an XML snippet in a
// document's write-side delta index; outstanding cursors and cached pages
// keep working, pinned to the snapshot they were issued at) and POST
// /compact (fold delta segments into the base). -compact-interval runs
// that fold on a background ticker so a write-heavy server never
// accumulates unbounded segments. Every backing takes appends, -store
// included: they live in memory only — a store file, like a -file
// document, is never written, so appends do not survive a restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xks"
	"xks/internal/admission"
	"xks/internal/httpapi"
	"xks/internal/service"
	"xks/internal/store"
)

func main() {
	var (
		file      = flag.String("file", "", "XML document to serve")
		storeF    = flag.String("store", "", "shredded store file to serve")
		dir       = flag.String("dir", "", "directory of *.xml files to serve as one corpus")
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("cache", 1024, "query result cache entries (0 disables caching)")
		workers   = flag.Int("workers", 0, "corpus search fan-out workers (0 = GOMAXPROCS)")
		slowQuery = flag.Duration("slow-query", 0, "log the explain trace of searches at least this slow (0 disables)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for in-flight requests")
		maxInFl   = flag.Int("max-inflight", 256, "concurrently executing searches before requests queue")
		queue     = flag.Int("queue", 1024, "searches waiting for a slot before requests shed with 429 (-1 disables queueing)")
		mmapMode  = flag.String("mmap", "auto", "store-file backing with -store: auto (mmap when possible), on (require mmap), off (heap)")
		allowWr   = flag.Bool("allow-writes", false, "expose POST /append and /compact")
		compactIv = flag.Duration("compact-interval", 0, "fold delta segments into the base on this interval (0 disables; needs -allow-writes)")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	sources := 0
	for _, s := range []string{*file, *storeF, *dir} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "usage: xkserver -file doc.xml | -store doc.xks | -dir corpus/ [-addr :8080] [-cache N] [-workers N]")
		os.Exit(2)
	}

	fatal := func(err error) {
		logger.Error("xkserver: fatal", slog.String("error", err.Error()))
		os.Exit(1)
	}

	var backend service.Backend
	var openInfo *service.StoreOpenInfo
	switch {
	case *dir != "":
		c, err := xks.LoadDir(*dir)
		if err != nil {
			fatal(err)
		}
		c.Workers = *workers
		backend = c
		logger.Info("loaded corpus", slog.Int("documents", c.Len()), slog.String("dir", *dir))
	case *storeF != "":
		var mode store.OpenMode
		switch *mmapMode {
		case "auto":
			mode = store.OpenAuto
		case "on":
			mode = store.OpenMmap
		case "off":
			mode = store.OpenHeap
		default:
			fatal(fmt.Errorf("invalid -mmap mode %q (want auto, on or off)", *mmapMode))
		}
		start := time.Now()
		st, err := store.OpenFile(*storeF, store.OpenOptions{Mode: mode})
		if err != nil {
			fatal(err)
		}
		engine := xks.FromStore(st)
		elapsed := time.Since(start)
		openInfo = &service.StoreOpenInfo{
			Seconds:     elapsed.Seconds(),
			Mode:        st.Mode(),
			MappedBytes: st.MappedBytes(),
			HeapBytes:   st.FileBytes() - st.MappedBytes(),
		}
		backend = service.SingleDoc{Name: filepath.Base(*storeF), Engine: engine}
		logger.Info("loaded store",
			slog.Int("words", engine.Index().NumWords()),
			slog.String("mode", st.Mode()),
			slog.Duration("openTime", elapsed),
			slog.Int64("mappedBytes", st.MappedBytes()),
			slog.Int64("fileBytes", st.FileBytes()))
	default:
		engine, err := xks.LoadFile(*file)
		if err != nil {
			fatal(err)
		}
		backend = service.SingleDoc{Name: filepath.Base(*file), Engine: engine}
		logger.Info("loaded document", slog.Int("words", engine.Index().NumWords()))
	}

	svc := service.New(backend, service.Config{CacheSize: *cacheSize})
	logger.Info("query cache", slog.Int("entries", *cacheSize))
	if openInfo != nil {
		svc.Metrics().SetStoreOpen(*openInfo)
	}

	if *debugAddr != "" {
		// pprof stays off the main listener so profiling endpoints are
		// never exposed wherever the API is.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", slog.String("addr", *debugAddr))
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("pprof server failed", slog.String("error", err.Error()))
			}
		}()
	}

	adm := admission.New(admission.Config{MaxInFlight: *maxInFl, MaxQueue: *queue})
	logger.Info("admission", slog.Int("maxInflight", *maxInFl), slog.Int("queue", *queue))

	srv := &http.Server{
		Addr: *addr,
		Handler: httpapi.NewHandler(svc, &httpapi.Options{
			Logger: logger, SlowQuery: *slowQuery, Admission: adm, AllowWrites: *allowWr,
		}),
	}
	if *allowWr {
		logger.Info("writes enabled", slog.Duration("compactInterval", *compactIv))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *allowWr && *compactIv > 0 {
		// Background compactor: fold accumulated delta segments on a fixed
		// cadence. Readers never notice — version tokens are unchanged by a
		// fold — so there is no coordination beyond the engines' own locks.
		go func() {
			tick := time.NewTicker(*compactIv)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					folded, err := svc.Compact(ctx)
					if err != nil {
						logger.Error("compaction failed", slog.String("error", err.Error()))
						continue
					}
					if folded > 0 {
						logger.Info("compacted", slog.Int("segmentsFolded", folded))
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", slog.String("addr", *addr))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately

	// Bounded drain: flip the front door shut first — new searches on live
	// keep-alive connections answer 503 + Connection: close and /healthz
	// turns unhealthy — then stop accepting and let in-flight and queued
	// requests (including NDJSON streams) finish before cutting the rest.
	adm.Drain()
	logger.Info("shutting down", slog.Duration("drain", *drain))
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", slog.String("error", err.Error()))
		os.Exit(1)
	}
	logger.Info("stopped")
}
