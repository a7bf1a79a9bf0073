package concurrent

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	out, err := MapCtx(nil, jobs, 8, func(j int) (int, error) { return j * j, nil })
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
	var ran int64
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := errors.New("boom")
	_, err := MapCtx(nil, jobs, 4, func(j int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if j == 2 {
			return 0, boom
		}
		return j, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != int64(len(jobs)) {
		t.Errorf("ran %d of %d jobs", ran, len(jobs))
	}
}

func TestMapSingleWorkerSequential(t *testing.T) {
	order := []int{}
	jobs := []int{3, 1, 4, 1, 5}
	_, err := MapCtx(nil, jobs, 1, func(j int) (int, error) {
		order = append(order, j) // safe: single worker
		return j, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if order[i] != jobs[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestMapZeroWorkersDefaults(t *testing.T) {
	out, err := MapCtx(nil, []int{1, 2, 3}, 0, func(j int) (int, error) { return j + 1, nil })
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapEmptyJobs(t *testing.T) {
	out, err := MapCtx(nil, nil, 4, func(j int) (int, error) { return j, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapMoreWorkersThanJobs(t *testing.T) {
	out, err := MapCtx(nil, []int{7}, 64, func(j int) (int, error) { return j, nil })
	if err != nil || len(out) != 1 || out[0] != 7 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func BenchmarkMapParallel(b *testing.B) {
	jobs := make([]int, 256)
	work := func(j int) (int, error) {
		s := 0
		for i := 0; i < 10000; i++ {
			s += i ^ j
		}
		return s, nil
	}
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MapCtx(nil, jobs, 1, work); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MapCtx(nil, jobs, 0, work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestMapCtxRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
		out, err := MapCtx(context.Background(), jobs, workers, func(j int) (int, error) {
			if j == 3 {
				panic("poisoned job")
			}
			return j * 10, nil
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
		// Other jobs still completed (partial results alongside the error).
		if workers > 1 && out[7] != 70 {
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
		MapCtx(context.Background(), make([]int, 64), 8, func(int) (int, error) {
			panic("every job panics")
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MapCtx did not return")
	}
}
