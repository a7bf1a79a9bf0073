package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xks"
	"xks/internal/service"
)

// TestChaosOffSpineAppendStorm: the write surface takes only the
// snapshot-isolated tail path. Off-spine and tail appends storm a live
// server while searches run; an off-spine parent is refused with 409 and the
// reason, a tail append succeeds, and no search ever resolves a node against
// the wrong table: every answer to "alpha" is a title element. Run under
// -race.
func TestChaosOffSpineAppendStorm(t *testing.T) {
	const papers, appends, readers = 40, 60, 3
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := range papers {
		fmt.Fprintf(&doc, "<paper><title>alpha p%d</title><year>y%d</year></paper>", i, i)
	}
	doc.WriteString("</bib>")
	engine, err := xks.LoadString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.SingleDoc{Name: "bib", Engine: engine}, service.Config{})
	srv := httptest.NewServer(NewHandler(svc, &Options{AllowWrites: true}))
	t.Cleanup(srv.Close)

	post := func(parent, xml string) (int, string) {
		body, _ := json.Marshal(AppendRequest{Parent: parent, XML: xml}) // plain strings cannot fail to marshal
		resp, err := http.Post(srv.URL+"/append", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body) // a short read shows up as a wrong body below
		return resp.StatusCode, string(text)
	}

	var writers, all sync.WaitGroup
	var done atomic.Bool
	writers.Add(2)
	all.Add(2 + readers)
	go func() { // tail appends: the root's subtree always ends the document
		defer all.Done()
		defer writers.Done()
		for i := range appends {
			if code, body := post("0", fmt.Sprintf("<paper><title>alpha t%d</title></paper>", i)); code != http.StatusOK {
				t.Errorf("tail append %d: status %d, body %q", i, code, body)
			}
		}
	}()
	go func() { // off-spine appends: the first paper is followed by every other
		defer all.Done()
		defer writers.Done()
		for i := range appends {
			code, body := post("0.0", "<note>offspine</note>")
			if code != http.StatusConflict || !strings.Contains(body, "spine") {
				t.Errorf("off-spine append %d: status %d, body %q; want 409 naming the spine", i, code, body)
			}
		}
	}()
	for range readers {
		go func() {
			defer all.Done()
			for !done.Load() {
				resp, err := http.Get(srv.URL + "/search?q=alpha")
				if err != nil {
					t.Error(err)
					return
				}
				var out Response
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("search: status %d, decode error %v", resp.StatusCode, err)
					return
				}
				if len(out.Fragments) < papers {
					t.Errorf("search saw %d fragments, fewer than the %d the document started with", len(out.Fragments), papers)
				}
				for _, f := range out.Fragments {
					if f.RootLabel != "title" || !strings.HasPrefix(f.XML, "<title>alpha ") {
						t.Errorf("torn read: fragment %s is a %q rendering %q", f.Root, f.RootLabel, f.XML)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	all.Wait()

	// Every tail append landed, no refused one left a trace.
	if _, out := getJSON(t, srv.URL+"/search?q=alpha"); out == nil || len(out.Fragments) != papers+appends {
		t.Errorf("after the storm: %+v, want %d fragments", out, papers+appends)
	}
	if _, out := getJSON(t, srv.URL+"/search?q=offspine"); out == nil || len(out.Fragments) != 0 {
		t.Errorf("a refused append is searchable: %+v", out)
	}
}
