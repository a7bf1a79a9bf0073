package xks

import (
	"context"
	"testing"

	"xks/internal/datagen"
	"xks/internal/trace"
	"xks/internal/workload"
)

// BenchmarkPageShapes is the in-process baseline of what an SLCA page costs
// by shape: Engine.Search over the DBLP document the benchmark harness
// calls "full" (12 000 records, generator seed 1, the paper's keyword
// frequencies scaled to it), cycling through every 2- and 3-keyword set of
// workload.DBLP() — the 1 330 sets serve-cold draws from. Each op is one
// traced request; besides ns/op it reports the request's candidates and
// materialize spans in ms/op and the fragments a page returns. Run it with
// -benchtime=1330x, or a multiple, so every set weighs the same.
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

	for _, shape := range []struct {
		name  string
		rank  bool
		limit int
	}{
		{"rank=1&limit=10", true, 10},
		{"limit=25", false, 25},
		{"limit=50", false, 50},
		{"unlimited", false, 0},
	} {
		b.Run(shape.name, func(b *testing.B) {
			traces := make([]*trace.Trace, b.N)
			fragments := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				tr := trace.New("search")
				res, err := e.Search(trace.NewContext(context.Background(), tr), Request{
					Query: sets[i%len(sets)], Semantics: SLCAOnly, Rank: shape.rank, Limit: shape.limit,
				})
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
