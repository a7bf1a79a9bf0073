package fault

import (
	"runtime"
	"strings"
	"time"
)

// LeakCheck snapshots the live goroutines and returns a check func the
// chaos tests defer (or register with t.Cleanup): it waits for every
// goroutine started since the snapshot to exit — workers joining, queue
// waiters draining, http keep-alives idling out — and returns their stacks
// when some have not within two seconds. The empty return string means no
// leak.
//
// The check tolerates no goroutine the snapshot did not hold: every fault
// class the chaos suite injects must leave zero goroutines behind, which is
// the acceptance bar for panic isolation and admission shedding. It tells
// goroutines apart by ID, not by count, so one from before the snapshot that
// exits meanwhile (an earlier test's runner winding down) cannot mask a
// leaked one.
func LeakCheck() func() string {
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[header(g)] = true
	}
	return func() string {
		deadline := time.Now().Add(2 * time.Second)
		for {
			var leaked []string
			for _, g := range goroutines()[1:] { // [0] is the caller's
				if !before[header(g)] {
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 {
				return ""
			}
			if time.Now().After(deadline) {
				return strings.Join(leaked, "\n\n")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// goroutines dumps every live goroutine's stack, the caller's first.
func goroutines() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(string(buf[:n]), "\n\n")
}

// header is a stack's first words, "goroutine <id>": the goroutine's name.
func header(stack string) string {
	h, _, _ := strings.Cut(stack, " [")
	return h
}
