package service

import (
	"context"
	"iter"

	"xks"
)

// Buffered is the one helper every fake backend of this package's tests
// (internal and external: the name is exported for service_test) is built
// on: Page is the fake's Search, and its Stream derives from it — Page runs
// when the stream's loop starts, its page is then yielded fragment by
// fragment and its envelope becomes the trailer. Everything else is the
// embedded backend's.
type Buffered struct {
	Backend
	Page func(ctx context.Context, req xks.Request) (*xks.Results, error)
}

func (b Buffered) Search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	return b.Page(ctx, req)
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
