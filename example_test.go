package xks_test

import (
	"context"
	"fmt"
	"log"

	"xks"
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
