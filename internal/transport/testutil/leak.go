// Package testutil holds test-only helpers shared by the transport,
// core, simnet and experiment test suites. It lives under transport
// because the contracts it checks — every reader/writer goroutine a
// connection spawns must be joined on every shutdown path — are
// transport-layer contracts.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// VerifyNoLeaks snapshots the goroutines currently executing medsplit
// code and registers a cleanup that fails the test if new ones outlive
// it. Call it at the top of any end-to-end test that spawns session
// goroutines (servers, platforms, followers, simnet sessions): an
// unjoined party, a leaked link goroutine or a parked stop-notification
// goroutine shows up as a failure with its stack.
//
// The cleanup polls for a grace period before failing, because clean
// shutdown paths may still be draining (e.g. best-effort notification
// goroutines that exit when the harness closes the connections).
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	before := medsplitGoroutines()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			leaked := leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				var sb strings.Builder
				for _, stack := range leaked {
					fmt.Fprintf(&sb, "\n--- leaked goroutine ---\n%s", stack)
				}
				t.Errorf("%d goroutine(s) running medsplit code leaked past the test:%s", len(leaked), sb.String())
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// leakedSince returns the stacks of medsplit goroutines whose ids were
// not present in the baseline snapshot.
func leakedSince(baseline map[string]bool) []string {
	var leaked []string
	for id, stack := range stacksByID() {
		if !baseline[id] {
			leaked = append(leaked, stack)
		}
	}
	return leaked
}

// medsplitGoroutines returns goroutine-id → stack for every goroutine
// whose stack mentions a medsplit non-test frame, excluding the calling
// goroutine (the test itself runs medsplit code by definition).
func medsplitGoroutines() map[string]bool {
	// Why id → bool with stacks re-fetched in leakedSince: ids are the
	// stable key across polls; the stack text is only needed for the
	// final report.
	out := make(map[string]bool)
	for id := range stacksByID() {
		out[id] = true
	}
	return out
}

func stacksByID() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	self := goroutineID(string(buf[:strings.IndexByte(string(buf), '\n')]))
	out := make(map[string]string)
	for _, block := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(block, "medsplit/internal/") {
			continue
		}
		// The probing goroutine and pure test-code goroutines (frames
		// only in _test.go files or this package) are not leaks.
		if !hasNonTestMedsplitFrame(block) {
			continue
		}
		id := goroutineID(block)
		if id == "" || id == self {
			continue
		}
		out[id] = block
	}
	return out
}

// hasNonTestMedsplitFrame reports whether the stack holds a medsplit
// frame outside _test.go files and outside this helper package.
func hasNonTestMedsplitFrame(block string) bool {
	for _, line := range strings.Split(block, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "medsplit/") && !strings.Contains(line, "/medsplit/internal/") {
			continue
		}
		if strings.Contains(line, "_test.go") || strings.Contains(line, "transport/testutil") {
			continue
		}
		// File-location lines look like "\t/path/file.go:123"; frame
		// lines look like "medsplit/internal/pkg.(*T).M(...)".
		if strings.Contains(line, ".go:") || strings.Contains(line, "(") {
			return true
		}
	}
	return false
}

// goroutineID extracts the numeric id from a "goroutine N [state]:"
// header line.
func goroutineID(block string) string {
	header := block
	if i := strings.IndexByte(header, '\n'); i >= 0 {
		header = header[:i]
	}
	header = strings.TrimSpace(header)
	if !strings.HasPrefix(header, "goroutine ") {
		return ""
	}
	rest := header[len("goroutine "):]
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		return rest[:i]
	}
	return rest
}
