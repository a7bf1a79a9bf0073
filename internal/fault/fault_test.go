package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestInjectNoPlanIsNil(t *testing.T) {
	if err := Inject(context.Background(), PointCandidates, "doc"); err != nil {
		t.Fatalf("no plan: err = %v", err)
	}
	if err := Inject(nil, PointCandidates, ""); err != nil {
		t.Fatalf("nil ctx: err = %v", err)
	}
}

func TestInjectErrorRule(t *testing.T) {
	ctx := NewContext(context.Background(), NewPlan(
		Rule{Point: PointStoreRead, Action: Action{Err: ErrInjected}},
	))
	if err := Inject(ctx, PointStoreRead, ""); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Other points are unaffected.
	if err := Inject(ctx, PointCandidates, ""); err != nil {
		t.Fatalf("unmatched point: err = %v", err)
	}
}

func TestInjectHitWindowIsDeterministic(t *testing.T) {
	// Skip 2 hits, fire exactly 1.
	ctx := NewContext(context.Background(), NewPlan(
		Rule{Point: PointCandidates, After: 2, Count: 1, Action: Action{Err: ErrInjected}},
	))
	got := make([]bool, 5)
	for i := range got {
		got[i] = Inject(ctx, PointCandidates, "any") != nil
	}
	want := []bool{false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d fired=%t, want %t (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestInjectLabelFilter(t *testing.T) {
	ctx := NewContext(context.Background(), NewPlan(
		Rule{Point: PointCandidates, Label: "b.xml", Action: Action{Err: ErrInjected}},
	))
	if err := Inject(ctx, PointCandidates, "a.xml"); err != nil {
		t.Fatalf("wrong label fired: %v", err)
	}
	if err := Inject(ctx, PointCandidates, "b.xml"); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching label: err = %v", err)
	}
}

func TestInjectPanics(t *testing.T) {
	ctx := NewContext(context.Background(), NewPlan(
		Rule{Point: PointMaterialize, Action: Action{PanicMsg: "poisoned document"}},
	))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(r.(string), "poisoned document") {
			t.Fatalf("panic = %v", r)
		}
	}()
	Inject(ctx, PointMaterialize, "")
}

func TestInjectDelayObservesContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ctx = NewContext(ctx, NewPlan(
		Rule{Point: PointAdmission, Action: Action{Delay: 10 * time.Second}},
	))
	start := time.Now()
	err := Inject(ctx, PointAdmission, "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("delay did not observe the context")
	}
}

func TestInjectUntilDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ctx = NewContext(ctx, NewPlan(
		Rule{Point: PointCandidates, Action: Action{UntilDeadline: true}},
	))
	if err := Inject(ctx, PointCandidates, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestLeakCheckCatchesLeak(t *testing.T) {
	// A goroutine from before the snapshot that exits inside the check's
	// window — as an earlier test's runner does when the machine is loaded —
	// must not offset the leaked one: the check compares IDs, not counts.
	old, oldDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(oldDone); <-old }()
	check := LeakCheck()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { defer close(done); <-stop }()
	close(old)
	<-oldDone
	// The blocked goroutine must be reported (the check waits out its
	// two-second grace period first)...
	if dump := check(); !strings.Contains(dump, "TestLeakCheckCatchesLeak") {
		t.Fatalf("leak not detected; dump:\n%s", dump)
	}
	// ...and once it has exited, the state is clean.
	close(stop)
	<-done
	if dump := check(); dump != "" {
		t.Fatalf("clean state reported as leak:\n%s", dump)
	}
}
