package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop must charge a server stall to every request that was due
// during it, not only to the one that hit it (no coordinated omission): the
// stub stalls once, for 300 ms, on one connection; the requests due behind
// the stalled one are late by however much of the stall was left when they
// were due.
func TestOpenLoopChargesAStallToLaterDueRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(stall)
		}
		fmt.Fprintln(w, `{"numLcas":0,"fragments":[]}`)
	}))
	defer srv.Close()

	reqs := make([]searchReq, 60)
	schedule := make([]time.Duration, len(reqs))
	for i := range reqs {
		reqs[i] = searchReq{Query: fmt.Sprintf("q%d", i)}
		schedule[i] = time.Duration(i) * 10 * time.Millisecond
	}
	client := newClient()
	defer client.CloseIdleConnections()
	ops := runOpen(client, srv.URL, &feed{reqs: reqs}, 1, schedule)
	if len(ops) != len(reqs) {
		t.Fatalf("%d ops, want %d", len(ops), len(reqs))
	}
	var stalledAt time.Duration
	for _, o := range ops {
		if o.failed() {
			t.Fatalf("op failed: %v %d", o.Err, o.Status)
		}
		if o.Idx == 4 {
			stalledAt = o.Sent
		}
	}
	slow := 0
	for _, o := range ops {
		if o.Due <= stalledAt || o.Due >= stalledAt+stall {
			continue
		}
		// Due while the only connection was stalled: it cannot have completed
		// before the stall ended, and it is timed from when it was due.
		if min := stalledAt + stall - o.Due; o.latency() < min {
			t.Errorf("request due at %v completed with latency %v; the stall alone accounts for %v", o.Due, o.latency(), min)
		}
		if o.latency() > 50*time.Millisecond {
			slow++
		}
		if o.Ready <= o.Due {
			t.Errorf("request due at %v reports the connection free at %v, during the stall", o.Due, o.Ready)
		}
	}
	if slow < 20 {
		t.Fatalf("only %d requests carry the stall; an open loop spreads it over every request due during it (~25)", slow)
	}
}

// A closed loop sends the next request when the previous one completed, so
// the same stall slows exactly one request — the contrast that makes the
// open-loop accounting above matter.
func TestClosedLoopSeesTheStallOnce(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(200 * time.Millisecond)
		}
		fmt.Fprintln(w, `{"numLcas":0,"fragments":[]}`)
	}))
	defer srv.Close()
	reqs := make([]searchReq, 40)
	for i := range reqs {
		reqs[i] = searchReq{Query: fmt.Sprintf("q%d", i)}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	ops := runClosed(client, srv.URL, &feed{reqs: reqs}, 1, time.Minute)
	slow := 0
	for _, o := range ops {
		if o.latency() > 50*time.Millisecond {
			slow++
		}
	}
	if len(ops) != len(reqs) || slow != 1 {
		t.Fatalf("%d ops, %d slow; want %d and 1", len(ops), slow, len(reqs))
	}
}

func TestFeedFollowsACursorOnceAheadOfFreshRequests(t *testing.T) {
	f := &feed{reqs: []searchReq{{Query: "a", Limit: 25, Follow: true}, {Query: "b"}}}
	o, keep, ok := f.take()
	if !ok || !keep || o.Idx != 0 {
		t.Fatalf("first take = %+v keep=%v ok=%v", o, keep, ok)
	}
	o.Status, o.Body = 200, []byte(`{"cursor":"tok","fragments":[]}`)
	f.followUp(&o)
	next, _, _ := f.take()
	if next.Cursor != "tok" || next.Idx != -1 {
		t.Fatalf("follow-up = %+v, want cursor tok ahead of the fresh request", next)
	}
	next.Status, next.Body = 200, []byte(`{"cursor":"tok2","fragments":[]}`)
	f.followUp(&next) // a follow-up is not followed again
	if o, _, _ := f.take(); o.Idx != 1 {
		t.Fatalf("third take = %+v, want the fresh request b", o)
	}
	if _, _, ok := f.take(); ok {
		t.Fatal("feed should be dry")
	}
}

func TestParseAnswerBufferedAndStreamed(t *testing.T) {
	a, cur, err := parseAnswer([]byte(`{"numLcas":3,"cursor":"c","fragments":[{"root":"0.1","nodes":4},{"root":"0.2","nodes":2}]}`), false)
	if err != nil || cur != "c" || a.String() != "3[0.1:4,0.2:2]" {
		t.Fatalf("buffered: %v %q %v", a, cur, err)
	}
	a, _, err = parseAnswer([]byte("{\"root\":\"0.1\",\"nodes\":4}\n{\"trailer\":true,\"numLcas\":1}\n"), true)
	if err != nil || a.String() != "1[0.1:4]" {
		t.Fatalf("streamed: %v %v", a, err)
	}
	if _, _, err := parseAnswer([]byte("{\"root\":\"0.1\",\"nodes\":4}\n"), true); err == nil {
		t.Fatal("a stream without a trailer must not parse")
	}
}
