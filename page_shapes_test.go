package xks

import (
	"context"
	"testing"

	"xks/internal/datagen"
	"xks/internal/trace"
	"xks/internal/workload"
)

// BenchmarkPageShapes is the in-process baseline of what a page costs by
// shape: Engine.Search over the DBLP document the benchmark harness calls
// "full" (12 000 records, generator seed 1, the paper's keyword frequencies
// scaled to it). The SLCA shapes cycle through every 2- and 3-keyword set of
// workload.DBLP() — the 1 330 sets serve-cold draws from; the fig5 shapes
// are the DBLP half of Figure 5 as fig5-full runs it — the 20 queries of
// workload.DBLP().ExpandAll(), ELCA, unranked and unlimited, under ValidRTF
// and under MaxMatch. Each op is one traced request; besides ns/op it
// reports the request's candidates and materialize spans in ms/op and the
// fragments a page returns. Run it with -benchtime=2660x, or a multiple, so
// every query weighs the same in every shape.
func BenchmarkPageShapes(b *testing.B) {
	w := workload.DBLP()
	const records = 12000
	specs, err := w.Specs(0, records/20000.0)
	if err != nil {
		b.Fatal(err)
	}
	e := FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: records, Keywords: specs}))
	var sets []string
	kw := w.Keywords
	for i := range kw {
		for j := i + 1; j < len(kw); j++ {
			sets = append(sets, kw[i].Word+" "+kw[j].Word)
		}
	}
	for i := range kw {
		for j := i + 1; j < len(kw); j++ {
			for k := j + 1; k < len(kw); k++ {
				sets = append(sets, kw[i].Word+" "+kw[j].Word+" "+kw[k].Word)
			}
		}
	}

	fig5, err := w.ExpandAll()
	if err != nil {
		b.Fatal(err)
	}

	for _, shape := range []struct {
		name    string
		queries []string
		req     Request
	}{
		{"rank=1&limit=10", sets, Request{Semantics: SLCAOnly, Rank: true, Limit: 10}},
		{"limit=25", sets, Request{Semantics: SLCAOnly, Limit: 25}},
		{"limit=50", sets, Request{Semantics: SLCAOnly, Limit: 50}},
		{"unlimited", sets, Request{Semantics: SLCAOnly}},
		{"fig5-ValidRTF", fig5, Request{Algorithm: ValidRTF}},
		{"fig5-MaxMatch", fig5, Request{Algorithm: MaxMatch}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			traces := make([]*trace.Trace, b.N)
			fragments := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				tr := trace.New("search")
				req := shape.req
				req.Query = shape.queries[i%len(shape.queries)]
				res, err := e.Search(trace.NewContext(context.Background(), tr), req)
				if err != nil {
					b.Fatal(err)
				}
				tr.Finish()
				traces[i], fragments = tr, fragments+len(res.Fragments)
			}
			b.StopTimer()
			spent := map[string]float64{} // span name -> ms over every op
			for _, tr := range traces {
				for _, sp := range tr.Root().JSON().Children {
					spent[sp.Name] += sp.DurationMS
				}
			}
			n := float64(b.N)
			b.ReportMetric(spent["candidates"]/n, "candidates-ms/op")
			b.ReportMetric(spent["materialize"]/n, "materialize-ms/op")
			b.ReportMetric(float64(fragments)/n, "fragments/op")
		})
	}
}
