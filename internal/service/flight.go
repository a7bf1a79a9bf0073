package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"xks/internal/concurrent"
)

// group collapses concurrent executions with the same key into one: the
// first caller (the leader) runs fn; callers arriving while it is in
// flight block and share the leader's result. A thundering herd of N
// identical queries therefore costs one pipeline execution, not N.
//
// The collapse is context-aware: a waiter whose own context ends while the
// leader is still computing detaches immediately with its ctx.Err() — the
// leader (and the other waiters) are unaffected. Conversely, when a leader
// dies of its *own* cancellation, surviving waiters do not inherit that
// error: they re-enter the group and one of them leads a fresh execution.
type group struct {
	mu    sync.Mutex
	calls map[string]*call
}

type call struct {
	done chan struct{} // closed when val/err are settled
	val  *Page
	err  error
}

// notOurAnswer reports whether a finished call's outcome is specific to the
// leader's own request conditions rather than to the query: its context
// died, or its BestEffort deadline truncated the page. Neither may be
// handed to a joiner as the query's answer — a Strict waiter with a
// generous deadline must get full results, not the leader's partial page —
// so joiners re-enter and one of them leads a fresh execution.
func notOurAnswer(c *call) bool {
	if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
		return true
	}
	return c.err == nil && c.val != nil && c.val.Truncated
}

// do runs fn once per key among concurrent callers. shared reports whether
// this caller received another execution's result (a join, or a retry
// after a cancelled leader); a waiter that detached on its own dead
// context received nothing and reports shared=false, so the serving
// layer's collapsed-request metric counts only real collapses.
func (g *group) do(ctx context.Context, key string, fn func() (*Page, error)) (val *Page, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = map[string]*call{}
		}
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-ctx.Done():
				// Detach: our caller is gone; the leader keeps computing
				// for whoever remains.
				return nil, false, ctx.Err()
			case <-c.done:
			}
			if notOurAnswer(c) && ctx.Err() == nil {
				// The leader was cancelled — or its best-effort deadline
				// truncated the page — but we were not; its outcome is not
				// our answer. Re-enter the group; the first waiter back
				// leads a fresh execution.
				shared = true
				continue
			}
			return c.val, true, c.err
		}
		c := &call{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		defer func() {
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		// Runs before the release defer above (LIFO): a panicking fn must
		// hand joiners an error, not a nil result with a nil error — and the
		// leader itself absorbs the panic into a structured ErrInternal
		// (stack captured in the PanicError) instead of re-raising it
		// through the HTTP handler and killing the connection goroutine.
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("xks: query execution panicked: %w", concurrent.Recovered(r))
				val, err = c.val, c.err
			}
		}()
		c.val, c.err = fn()
		return c.val, shared, c.err
	}
}
