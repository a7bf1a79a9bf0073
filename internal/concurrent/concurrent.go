// Package concurrent fans jobs out across worker goroutines under panic
// isolation. Engines are concurrency-safe, so N workers can share them; the
// corpus uses this for its per-document candidate fan-out.
package concurrent

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ErrInternal is the sentinel under every recovered panic: a worker (or any
// other isolated execution) that panicked surfaces as an error wrapping
// ErrInternal instead of crashing the process. Serving layers match it with
// errors.Is to map to 500s and count recoveries; the xks package re-exports
// it as xks.ErrInternal.
var ErrInternal = errors.New("internal error")

// PanicError is the structured form of a recovered panic: the recovered
// value plus the goroutine stack captured at the recovery site, so the
// serving layer can log the stack while clients see only a structured
// internal error. It wraps ErrInternal.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.Value) }

func (e *PanicError) Unwrap() error { return ErrInternal }

// Recovered wraps a recover() value into a PanicError, capturing the stack
// of the calling goroutine. Call it only from a deferred recover handler so
// the stack still shows the panic site.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Result pairs a job index with its outcome.
type Result[T any] struct {
	Index int
	Value T
	Err   error
}

// MapCtx runs fn over every job on up to workers goroutines (default
// GOMAXPROCS) and returns the results in job order. The first error is
// returned alongside the partial results; remaining jobs still run.
//
// Cancellation is cooperative: once ctx is done, workers stop picking up
// new jobs and MapCtx returns ctx.Err() (in-flight fn calls still finish —
// fn is expected to observe ctx itself for mid-job cancellation). Every
// worker goroutine is joined before MapCtx returns, so a cancelled fan-out
// leaks nothing. A nil ctx never cancels.
//
// Panic isolation: a panicking fn does not crash the process (an unrecovered
// panic on a worker goroutine would — no http.Server recovery reaches
// here). The panic is recovered into that job's error as a *PanicError
// (wrapping ErrInternal, stack captured), so one poisoned job degrades the
// fan-out into a structured error instead of killing the server.
func MapCtx[J, T any](ctx context.Context, jobs []J, workers int, fn func(J) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	call := func(j J) (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = Recovered(r)
			}
		}()
		return fn(j)
	}
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			if err := ctxErr(); err != nil {
				return out, err
			}
			out[i], errs[i] = call(j)
		}
		return out, firstError(errs)
	}
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctxErr() != nil {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				out[i], errs[i] = call(jobs[i])
			}
		}()
	}
	wg.Wait()
	if err := ctxErr(); err != nil {
		return out, err
	}
	return out, firstError(errs)
}

func firstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
