package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// maxConns is the generator's ceiling on keep-alive connections and on
// goroutines issuing work, whatever the workload (the sandbox has two
// cores, shared with the server under test).
const maxConns = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}}
}

// op is one issued search and what came back. Offsets are from the start of
// the timed window.
type op struct {
	Idx    int           // index into the workload's request list; -1 for a cursor follow-up
	Req    searchReq     // the request (follow-ups repeat their first page's)
	Cursor string        // non-empty on a follow-up
	Due    time.Duration // open loops: when the schedule wanted it sent; closed loops: when it was sent
	Ready  time.Duration // when a connection was free to send it (>= Due only if the generator queued it)
	Sent   time.Duration
	First  time.Duration // stream=1: first NDJSON line read; 0 otherwise
	Done   time.Duration
	Status int
	Bytes  int64
	Body   []byte // kept for checked and cursor-bearing requests only
	Err    error
}

// latency is what the caller observed: completion minus due time, so a
// stall is charged to every request that was due during it (no coordinated
// omission), not just to the one that hit it.
func (o *op) latency() time.Duration { return o.Done - o.Due }

func (o *op) failed() bool { return o.Err != nil || o.Status != http.StatusOK }

// doSearch performs one GET and reads the whole body. The body is retained
// when keep is set; streamed responses record when their first line arrived.
func doSearch(client *http.Client, base string, o *op, t0 time.Time, keep bool) {
	o.Sent = time.Since(t0)
	resp, err := client.Get(base + o.Req.path(o.Cursor))
	if err != nil {
		o.Err = err
		o.Done = time.Since(t0)
		return
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	var sink io.Writer = io.Discard
	var buf bytes.Buffer
	if keep {
		sink = &buf
	}
	body := io.Reader(resp.Body)
	if o.Req.Stream {
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		line, err := br.ReadSlice('\n')
		for err == bufio.ErrBufferFull { // a first fragment longer than the buffer
			n, _ := sink.Write(line)
			o.Bytes += int64(n)
			line, err = br.ReadSlice('\n')
		}
		o.First = time.Since(t0)
		n, _ := sink.Write(line)
		o.Bytes += int64(n)
		body = br
	}
	n, err := io.Copy(sink, body)
	o.Bytes += n
	if err != nil {
		o.Err = err
	}
	o.Done = time.Since(t0)
	if keep {
		o.Body = buf.Bytes()
	}
}

// feed hands out the searches of one run: fresh requests in list order,
// with cursor follow-ups (queued by the worker that saw the cursor) taking
// the next turn ahead of them.
type feed struct {
	mu    sync.Mutex
	reqs  []searchReq
	order []int // indices into reqs, in issue order; nil = 0,1,2,…
	next  int
	// cycle starts over when the list is exhausted instead of running dry.
	cycle   bool
	pending []op
	// keep says which fresh requests retain their body for checking.
	keep func(idx int) bool
}

func (f *feed) take() (o op, keep, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.pending); n > 0 {
		o = f.pending[0]
		f.pending = f.pending[1:]
		return o, true, true
	}
	n := len(f.reqs)
	if f.order != nil {
		n = len(f.order)
	}
	if f.next >= n && !f.cycle || n == 0 {
		return op{}, false, false
	}
	idx := f.next % n
	if f.order != nil {
		idx = f.order[idx]
	}
	f.next++
	r := f.reqs[idx]
	return op{Idx: idx, Req: r}, r.Follow || (f.keep != nil && f.keep(idx)), true
}

// followUp queues the second page of a Follow request when the first page
// carried a cursor.
func (f *feed) followUp(o *op) {
	if !o.Req.Follow || o.Cursor != "" || o.failed() {
		return
	}
	var page struct {
		Cursor string `json:"cursor"`
	}
	if err := json.Unmarshal(o.Body, &page); err != nil || page.Cursor == "" {
		return
	}
	f.mu.Lock()
	f.pending = append(f.pending, op{Idx: -1, Req: o.Req, Cursor: page.Cursor})
	f.mu.Unlock()
}

// runClosed drives the feed closed-loop from `workers` goroutines (one
// connection each) until the window has elapsed or the feed is dry: each
// sends its next request when its previous one completed.
func runClosed(client *http.Client, base string, f *feed, workers int, window time.Duration) []op {
	workers = min(workers, maxConns)
	t0 := time.Now()
	results := make([][]op, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < window {
				o, keep, ok := f.take()
				if !ok {
					return
				}
				o.Due = time.Since(t0)
				o.Ready = o.Due
				doSearch(client, base, &o, t0, keep)
				f.followUp(&o)
				results[w] = append(results[w], o)
			}
		}()
	}
	wg.Wait()
	return flatten(results)
}

// runOpen drives the feed open-loop: request i is due at schedule[i]
// whatever happened to the ones before it. At most `workers` are in flight
// (the connection ceiling); a request whose due time passes while every
// connection is busy is sent as soon as one frees up and still timed from
// its due time.
func runOpen(client *http.Client, base string, f *feed, workers int, schedule []time.Duration) []op {
	workers = min(workers, maxConns)
	t0 := time.Now()
	var (
		mu   sync.Mutex
		slot int
	)
	results := make([][]op, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := slot
				slot++
				mu.Unlock()
				if i >= len(schedule) {
					return
				}
				free := time.Since(t0)
				if wait := schedule[i] - free; wait > 0 {
					time.Sleep(wait)
				}
				o, keep, ok := f.take()
				if !ok {
					return
				}
				o.Due = schedule[i]
				o.Ready = max(schedule[i], free)
				doSearch(client, base, &o, t0, keep)
				f.followUp(&o)
				results[w] = append(results[w], o)
			}
		}()
	}
	wg.Wait()
	return flatten(results)
}

func flatten(parts [][]op) []op {
	var out []op
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// appendOp is one POST /append. Due is when the read stream asked for it.
type appendOp struct {
	Due, Sent, Done time.Duration
	Status          int
	Err             error
}

// readsPerAppend fixes the write workload's mix: one append is due after
// every eighth read (≈ 50 appends/s beside ≈ 400 reads/s on the sandbox).
// Tying the appends to the reads instead of to the clock keeps the mix — and
// so every per-operation count — the same however fast the machine is.
const readsPerAppend = 8

// runReadsWithAppends drives the write workload until the window ends:
// one connection reads the feed closed-loop and, after every
// readsPerAppend-th read, makes the next append due; a second connection
// posts the due appends one at a time, each timed from when it became due.
func runReadsWithAppends(client *http.Client, base string, f *feed, docs []appendDoc, window time.Duration) ([]op, []appendOp) {
	t0 := time.Now()
	due := make(chan time.Duration, len(docs)) // never blocks the reader
	var appends []appendOp
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for at := range due {
			a := appendOp{Due: at, Sent: time.Since(t0)}
			body, _ := json.Marshal(map[string]string{"doc": "", "parent": "0", "xml": docs[len(appends)].XML})
			resp, err := client.Post(base+"/append", "application/json", bytes.NewReader(body))
			if err != nil {
				a.Err = err
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				a.Status = resp.StatusCode
			}
			a.Done = time.Since(t0)
			appends = append(appends, a)
		}
	}()
	var reads []op
	for issued := 0; time.Since(t0) < window; {
		o, keep, ok := f.take()
		if !ok {
			break
		}
		o.Due = time.Since(t0)
		o.Ready = o.Due
		doSearch(client, base, &o, t0, keep)
		f.followUp(&o)
		reads = append(reads, o)
		if len(reads)%readsPerAppend == 0 && issued < len(docs) {
			due <- time.Since(t0)
			issued++
		}
	}
	close(due)
	wg.Wait()
	return reads, appends
}

// answer is what a search returned, reduced to what every backing must
// agree on: the total number of fragment roots and, per returned fragment
// in order, its root and kept-node count.
type answer struct {
	NumLCAs int
	Frags   []string // "root:nodes"
}

func (a answer) String() string {
	return fmt.Sprintf("%d[%s]", a.NumLCAs, strings.Join(a.Frags, ","))
}

type wireFragment struct {
	Root  string `json:"root"`
	Nodes int    `json:"nodes"`
}

// parseAnswer decodes a /search body, buffered JSON or NDJSON stream.
func parseAnswer(body []byte, stream bool) (answer, string, error) {
	var a answer
	if !stream {
		var resp struct {
			NumLCAs   int            `json:"numLcas"`
			Cursor    string         `json:"cursor"`
			Fragments []wireFragment `json:"fragments"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return a, "", err
		}
		a.NumLCAs = resp.NumLCAs
		for _, f := range resp.Fragments {
			a.Frags = append(a.Frags, fmt.Sprintf("%s:%d", f.Root, f.Nodes))
		}
		return a, resp.Cursor, nil
	}
	cursor, sawTrailer := "", false
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		var rec struct {
			wireFragment
			Trailer bool   `json:"trailer"`
			NumLCAs int    `json:"numLcas"`
			Cursor  string `json:"cursor"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return a, "", err
		}
		if rec.Trailer {
			if rec.Error != "" {
				return a, "", fmt.Errorf("stream trailer error: %s", rec.Error)
			}
			a.NumLCAs, cursor, sawTrailer = rec.NumLCAs, rec.Cursor, true
			continue
		}
		a.Frags = append(a.Frags, fmt.Sprintf("%s:%d", rec.Root, rec.Nodes))
	}
	if !sawTrailer {
		return a, "", fmt.Errorf("stream ended without a trailer")
	}
	return a, cursor, nil
}
