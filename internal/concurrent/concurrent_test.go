package concurrent

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	out := make([]int, 100)
	err := Each(nil, len(out), 8, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapAllJobsRunDespiteError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := Each(nil, 8, 4, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 8 {
		t.Errorf("ran %d of 8 calls", ran.Load())
	}
}

func TestMapSingleWorkerSequential(t *testing.T) {
	var order []int
	err := Each(nil, 5, 1, func(i int) error {
		order = append(order, i) // safe: single worker
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestMapZeroWorkersDefaults(t *testing.T) {
	out := make([]int, 3)
	err := Each(nil, len(out), 0, func(i int) error {
		out[i] = i + 1
		return nil
	})
	if err != nil || out[2] != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapEmptyJobs(t *testing.T) {
	err := Each(nil, 0, 4, func(int) error {
		t.Error("fn called for an empty range")
		return nil
	})
	if err != nil {
		t.Fatalf("err=%v", err)
	}
}

func TestMapMoreWorkersThanJobs(t *testing.T) {
	var calls atomic.Int64
	err := Each(nil, 1, 64, func(i int) error {
		calls.Add(1)
		if i != 0 {
			t.Errorf("fn(%d) for a one-element range", i)
		}
		return nil
	})
	if err != nil || calls.Load() != 1 {
		t.Fatalf("calls=%d err=%v", calls.Load(), err)
	}
}

func BenchmarkMapParallel(b *testing.B) {
	work := func(j int) error {
		s := 0
		for i := 0; i < 10000; i++ {
			s += i ^ j
		}
		_ = s
		return nil
	}
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Each(nil, 256, 1, work); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Each(nil, 256, 0, work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestMapCtxRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := make([]int, 8)
		err := Each(context.Background(), len(out), workers, func(i int) error {
			if i == 3 {
				panic("poisoned job")
			}
			out[i] = i * 10
			return nil
		})
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("workers=%d: err = %v, want ErrInternal", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %T does not unwrap to *PanicError", workers, err)
		}
		if pe.Value != "poisoned job" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError = {%v, %d stack bytes}", workers, pe.Value, len(pe.Stack))
		}
		// The other calls still completed.
		if out[7] != 70 {
			t.Errorf("workers=%d: out[7] = %d, want 70", workers, out[7])
		}
	}
}

func TestMapCtxPanicDoesNotKillProcess(t *testing.T) {
	// A panic on a bare worker goroutine would crash the whole test binary;
	// surviving this call at workers>len-triggering parallelism is the
	// assertion.
	done := make(chan struct{})
	go func() {
		defer close(done)
		Each(context.Background(), 64, 8, func(int) error {
			panic("every job panics")
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Each did not return")
	}
}
