// Package leakcheck is a test helper shared by the engine's test suites:
// it waits for the goroutines a closed resource stopped to exit, and fails
// the test with every goroutine's stack when they do not.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// WaitGoroutines waits up to five seconds for runtime.NumGoroutine to fall
// back to at most base — goroutines a closed resource stopped may take a
// moment to exit — and fails t with every goroutine's stack if it does
// not.
func WaitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running, want at most %d:\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
