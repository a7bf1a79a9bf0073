package service

import (
	"context"
	"iter"

	"xks"
)

// Buffered adapts a buffered search func to the Backend's stream shape — the
// one helper every fake backend of this package's tests (internal and
// external: the name is exported for service_test) is built on. Search runs
// when the stream's loop starts; its page is then yielded fragment by
// fragment and its envelope becomes the trailer. Everything else is the
// embedded backend's.
type Buffered struct {
	Backend
	Search func(ctx context.Context, req xks.Request) (*xks.Results, error)
}

func (b Buffered) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	res := &xks.Results{Query: req.Query}
	seq := func(yield func(xks.CorpusFragment, error) bool) {
		r, err := b.Search(ctx, req)
		if err != nil {
			yield(xks.CorpusFragment{}, err)
			return
		}
		*res = *r
		res.Fragments = nil
		for _, f := range r.Fragments {
			if !yield(f, nil) {
				return
			}
		}
	}
	return seq, func() *xks.Results { return res }
}

// Drain is the inverse adapter, what a fake wrapping a real backend calls as
// "the underlying search": b's stream run to its end, collected into a page.
func Drain(ctx context.Context, b Backend, req xks.Request) (*xks.Results, error) {
	seq, trailer := b.Stream(ctx, req)
	var page []xks.CorpusFragment
	for f, err := range seq {
		if err != nil {
			return nil, err
		}
		page = append(page, f)
	}
	res := *trailer()
	res.Fragments = page
	return &res, nil
}
