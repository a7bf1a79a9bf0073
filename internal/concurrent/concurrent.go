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
	"sync/atomic"
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

// Each calls fn(i) for every i in [0, n) on up to workers goroutines
// (default GOMAXPROCS) and returns the error of the lowest i that failed;
// the remaining calls still run.
//
// Cancellation is cooperative: once ctx is done, workers stop picking up
// new indices and Each returns ctx.Err() (in-flight fn calls still finish —
// fn is expected to observe ctx itself for mid-call cancellation). Every
// worker goroutine is joined before Each returns, so a cancelled fan-out
// leaks nothing. A nil ctx never cancels.
//
// Panic isolation: a panicking fn does not crash the process (an unrecovered
// panic on a worker goroutine would — no http.Server recovery reaches
// here). The panic is recovered into that call's error as a *PanicError
// (wrapping ErrInternal, stack captured), so one poisoned call degrades the
// fan-out into a structured error instead of killing the server.
func Each(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = Recovered(r)
			}
		}()
		return fn(i)
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := range n {
			if err := ctxErr(); err != nil {
				return err
			}
			errs[i] = call(i)
		}
		return firstError(errs)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctxErr() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = call(i)
			}
		}()
	}
	wg.Wait()
	if err := ctxErr(); err != nil {
		return err
	}
	return firstError(errs)
}

func firstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
