package xks_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"xks"
	"xks/internal/datagen"
	"xks/internal/store"
	"xks/internal/workload"
)

const exampleDoc = `<Publications>
  <title>VLDB</title>
  <Articles>
    <article>
      <title>Match Relevant XML Keyword Search</title>
      <abstract>keyword search over XML data</abstract>
    </article>
    <article>
      <title>Skyline Query Processing</title>
    </article>
  </Articles>
</Publications>`

// The basic search loop: load a document, search, print fragment roots.
func ExampleEngine_Search() {
	engine, err := xks.LoadString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Search(context.Background(), xks.Request{Query: "relevant match data"})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.Fragments {
		fmt.Printf("%s (%s) slca=%v nodes=%d\n", f.Root, f.RootLabel, f.IsSLCA, f.Len())
	}
	// Output:
	// 0.1.0 (article) slca=true nodes=3
}

// MaxMatch's contributor rule can discard more than ValidRTF keeps.
func ExampleEngine_Search_algorithm() {
	engine, err := xks.LoadString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	// "match" occurs only in the title, "keyword" in both title and
	// abstract: MaxMatch discards the abstract (strict keyword-set subset
	// of its sibling) while ValidRTF keeps it (unique label, rule 1).
	valid, _ := engine.Search(context.Background(), xks.Request{Query: "vldb match keyword"})
	maxm, _ := engine.Search(context.Background(), xks.Request{Query: "vldb match keyword", Algorithm: xks.MaxMatch})
	fmt.Printf("ValidRTF keeps %d nodes, MaxMatch keeps %d\n",
		valid.Fragments[0].Len(), maxm.Fragments[0].Len())
	// Output:
	// ValidRTF keeps 6 nodes, MaxMatch keeps 5
}

// Label predicates restrict a keyword to elements with a given name.
func ExampleEngine_Search_predicates() {
	engine, err := xks.LoadString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Search(context.Background(), xks.Request{Query: "title:skyline query"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Fragments), res.Fragments[0].Root)
	// Output:
	// 1 0.1.1.0
}

// Compare reports the paper's effectiveness ratios between the two
// algorithms.
func ExampleEngine_Compare() {
	engine, err := xks.LoadString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := engine.Compare(context.Background(), xks.Request{Query: "xml keyword search"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fragments=%d CFR=%.1f\n", cmp.NumRTFs, cmp.Ratios.CFR)
	// Output:
	// fragments=2 CFR=1.0
}

// The quickstart: load the paper's Figure 1(a) document, run its running
// example Q3, and print the fragment as a tree and as XML. Every keyword
// appears in the fragment; the uninteresting sibling branches are pruned
// away. MaxMatch's contributor rule then discards the uniquely-labelled
// abstract and references branches — the false positive problem ValidRTF
// fixes.
func Example_quickstart() {
	engine, err := xks.LoadString(`
<Publications>
  <title>VLDB</title>
  <year>2008</year>
  <Articles>
    <article>
      <authors><author><name>Zhen Liu</name></author></authors>
      <title>Match Relevant XML Keyword Search</title>
      <abstract>We study keyword search over XML data and identify relevant matches.</abstract>
      <references>
        <ref>Z. Liu and Y. Chen. Reasoning and identifying relevant matches for XML keyword search.</ref>
      </references>
    </article>
    <article>
      <authors>
        <author><name>Raymond Wong</name></author>
        <author><name>Ada Fu</name></author>
      </authors>
      <title>Efficient Skyline Query with Variable User Preferences on Nominal Attributes</title>
      <abstract>Dynamic Skyline Query processing under changing preferences.</abstract>
    </article>
  </Articles>
</Publications>`)
	if err != nil {
		log.Fatal(err)
	}
	ctx, query := context.Background(), "VLDB title XML keyword search"
	res, err := engine.Search(ctx, xks.Request{Query: query})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("keywords %v, %d fragment\n", res.Stats.Keywords, len(res.Fragments))
	f := res.Fragments[0]
	fmt.Printf("rooted at %s (%s), SLCA %v:\n%s", f.Root, f.RootLabel, f.IsSLCA, f.ASCII())
	fmt.Print(f.XML())
	mm, err := engine.Search(ctx, xks.Request{Query: query, Algorithm: xks.MaxMatch})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ValidRTF kept %d nodes; MaxMatch kept %d:\n%s", f.Len(), mm.Fragments[0].Len(), mm.Fragments[0].ASCII())
	// Output:
	// keywords [vldb title xml keyword search], 1 fragment
	// rooted at 0 (Publications), SLCA true:
	// 0 (Publications)
	//   0.0 (title) "VLDB"
	//   0.2 (Articles)
	//     0.2.0 (article)
	//       0.2.0.1 (title) "Match Relevant XML Keyword Search"
	//       0.2.0.2 (abstract) "We study keyword search over XML data and identify relevant matches."
	//       0.2.0.3 (references)
	//         0.2.0.3.0 (ref) "Z. Liu and Y. Chen. Reasoning and identifying relevant matches for XML keyword search."
	// <Publications>
	//   <title>VLDB</title>
	//   <Articles>
	//     <article>
	//       <title>Match Relevant XML Keyword Search</title>
	//       <abstract>We study keyword search over XML data and identify relevant matches.</abstract>
	//       <references>
	//         <ref>Z. Liu and Y. Chen. Reasoning and identifying relevant matches for XML keyword search.</ref>
	//       </references>
	//     </article>
	//   </Articles>
	// </Publications>
	// ValidRTF kept 8 nodes; MaxMatch kept 5:
	// 0 (Publications)
	//   0.0 (title) "VLDB"
	//   0.2 (Articles)
	//     0.2.0 (article)
	//       0.2.0.1 (title) "Match Relevant XML Keyword Search"
}

// Label predicates and snippets over a generated bibliography, then the
// paper's deployment architecture — shred once into tables, search the
// store — and an append that is searchable at once (data monotonicity).
// XSearch-style terms restrict a keyword to a label: "title:xml" cuts the
// xml occurrences in citations and links.
func Example_predicates() {
	ctx := context.Background()
	specs, err := workload.DBLP().Specs(0, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 4, NumRecords: 800, Keywords: specs})
	engine := xks.FromTree(tree)
	for _, q := range []string{"xml retrieval", "title:xml retrieval"} {
		res, err := engine.Search(ctx, xks.Request{Query: q, Rank: true, Limit: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%q: %d fragments; the last of the top three:\n", q, res.Stats.NumLCAs)
		f := res.Fragments[2]
		fmt.Printf("  [%s %s] %s\n", f.Root, f.RootLabel, f.Snippet())
	}

	st := store.Shred(tree, nil)
	dir, err := os.MkdirTemp("", "xks-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "dblp.xks")
	if err := st.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shredded store: %d element rows, %d value rows, %d bytes on disk\n", st.NumNodes(), st.NumValues(), info.Size())
	storeEngine, err := xks.OpenStore(path)
	if err != nil {
		log.Fatal(err)
	}
	defer storeEngine.Close()
	res, err := storeEngine.Search(ctx, xks.Request{Query: "title:xml retrieval", Limit: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store-backed search: %d fragments, the first rooted at %s (%s)\n", res.Stats.NumLCAs, res.Fragments[0].Root, res.Fragments[0].RootLabel)

	err = engine.AppendXML("0", `<article><author>Ada Example</author><title>A fresh xml retrieval paper</title></article>`)
	if err != nil {
		log.Fatal(err)
	}
	after, err := engine.Search(ctx, xks.Request{Query: "title:xml retrieval fresh"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after AppendXML: %d fragment for the narrowed query\n", len(after.Fragments))
	// Output:
	// "xml retrieval": 27 fragments; the last of the top three:
	//   [0.76.5 ee] ee: doi coba model [xml] [retrieval]
	// "title:xml retrieval": 5 fragments; the last of the top three:
	//   [0.356 inproceedings] title: … lusowajo brastedroga secure [xml] pattern … year: y1998 data [retrieval]
	// shredded store: 6064 element rows, 27931 value rows, 569464 bytes on disk
	// store-backed search: 5 fragments, the first rooted at 0 (dblp)
	// after AppendXML: 1 fragment for the narrowed query
}
