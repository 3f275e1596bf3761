package bench

import (
	"strings"
	"testing"
)

func retrievalReport(records ...RetrievalRecord) *RetrievalReport {
	return &RetrievalReport{Records: records}
}

func TestDiffRetrievalGates(t *testing.T) {
	old := retrievalReport(
		RetrievalRecord{Cell: "c", Solver: "pr-binary", NsPerOp: 1000, AllocsPerOp: 0},
		RetrievalRecord{Cell: "c", Solver: "pr-binary-parallel(2)", NsPerOp: 1000, AllocsPerOp: 50},
	)

	// Identical run: clean, and in particular the gate-exempt parallel
	// engine still counts as matched (no spurious unmatched-entry note).
	if v, infos := DiffRetrieval(old, old, DiffOptions{TimingChecks: true}); len(v) != 0 || len(infos) != 0 {
		t.Fatalf("self-diff not clean: violations %v, infos %v", v, infos)
	}

	// >25% ns/op regression on a sequential engine: flagged only with
	// timing checks on.
	slow := retrievalReport(RetrievalRecord{Cell: "c", Solver: "pr-binary", NsPerOp: 1300, AllocsPerOp: 0})
	if v, _ := DiffRetrieval(old, slow, DiffOptions{TimingChecks: true}); len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Fatalf("slowdown not flagged: %v", v)
	}
	if v, _ := DiffRetrieval(old, slow, DiffOptions{}); len(v) != 0 {
		t.Fatalf("timing gate leaked into allocs-only mode: %v", v)
	}

	// Any allocs/op regression on a sequential engine: flagged even
	// without a committed counterpart (absolute zero-alloc gate).
	leaky := retrievalReport(RetrievalRecord{Cell: "new-cell", Solver: "pr-binary", NsPerOp: 1, AllocsPerOp: 3})
	if v, _ := DiffRetrieval(old, leaky, DiffOptions{}); len(v) != 1 || !strings.Contains(v[0], "zero-allocation") {
		t.Fatalf("allocation leak not flagged: %v", v)
	}

	// The parallel engine is exempt from both gates.
	par := retrievalReport(RetrievalRecord{Cell: "c", Solver: "pr-binary-parallel(2)", NsPerOp: 9000, AllocsPerOp: 80})
	if v, _ := DiffRetrieval(old, par, DiffOptions{TimingChecks: true}); len(v) != 0 {
		t.Fatalf("parallel engine gated: %v", v)
	}
}

// TestDiffRetrievalUnmatchedEntries pins the tolerance satellite: records
// present in only one of the two documents are reported informationally,
// never as violations, in both directions.
func TestDiffRetrievalUnmatchedEntries(t *testing.T) {
	old := retrievalReport(
		RetrievalRecord{Cell: "c", Solver: "pr-binary", NsPerOp: 1000},
		RetrievalRecord{Cell: "gone", Solver: "pr-binary", NsPerOp: 1000},
	)
	fresh := retrievalReport(
		RetrievalRecord{Cell: "c", Solver: "pr-binary", NsPerOp: 1000},
		RetrievalRecord{Cell: "brand-new", Solver: "pr-binary", NsPerOp: 1000},
	)
	v, infos := DiffRetrieval(old, fresh, DiffOptions{TimingChecks: true})
	if len(v) != 0 {
		t.Fatalf("unmatched entries flagged as violations: %v", v)
	}
	var sawFresh, sawCommitted bool
	for _, i := range infos {
		sawFresh = sawFresh || strings.Contains(i, "brand-new")
		sawCommitted = sawCommitted || strings.Contains(i, "gone")
	}
	if !sawFresh || !sawCommitted {
		t.Fatalf("unmatched entries not reported informationally: %v", infos)
	}
}

// TestDiffRetrievalZeroBaselineTiming pins the divide/ratio guard: a
// committed record with no timing cannot produce a timing violation, only
// a skip note.
func TestDiffRetrievalZeroBaselineTiming(t *testing.T) {
	old := retrievalReport(RetrievalRecord{Cell: "c", Solver: "pr-binary", NsPerOp: 0})
	fresh := retrievalReport(RetrievalRecord{Cell: "c", Solver: "pr-binary", NsPerOp: 5000})
	v, infos := DiffRetrieval(old, fresh, DiffOptions{TimingChecks: true})
	if len(v) != 0 {
		t.Fatalf("zero-timing baseline produced violations: %v", v)
	}
	found := false
	for _, i := range infos {
		found = found || strings.Contains(i, "timing gate skipped")
	}
	if !found {
		t.Fatalf("zero-timing baseline not noted: %v", infos)
	}
}

func TestDiffServeGates(t *testing.T) {
	old := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "replay", Workers: 1, QPS: 1000, AllocsPerOp: 5, DeterministicMatch: true},
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 3000, AllocsPerOp: 5},
	}}
	if v, _ := DiffServe(old, old, DiffOptions{TimingChecks: true}); len(v) != 0 {
		t.Fatalf("self-diff violations: %v", v)
	}

	// Lost deterministic equivalence is always a violation.
	broken := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "replay", Workers: 1, QPS: 1000, AllocsPerOp: 5},
	}}
	if v, _ := DiffServe(old, broken, DiffOptions{}); len(v) != 1 || !strings.Contains(v[0], "deterministic") {
		t.Fatalf("determinism loss not flagged: %v", v)
	}

	// QPS collapse: flagged only with timing checks.
	slow := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 1000, AllocsPerOp: 5},
	}}
	if v, _ := DiffServe(old, slow, DiffOptions{TimingChecks: true}); len(v) != 1 || !strings.Contains(v[0], "queries/sec") {
		t.Fatalf("throughput collapse not flagged: %v", v)
	}
	if v, _ := DiffServe(old, slow, DiffOptions{}); len(v) != 0 {
		t.Fatalf("timing gate leaked into allocs-only mode: %v", v)
	}

	// Per-pass allocation blowup beyond the construction slack.
	alloc := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 3000, AllocsPerOp: 12},
	}}
	if v, _ := DiffServe(old, alloc, DiffOptions{}); len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("allocation regression not flagged: %v", v)
	}
}

// TestDiffServeUnmatchedEntries: new serve modes (the hot workload)
// appear in fresh reports before any baseline regeneration — they must
// surface as information, not violations, and committed-only entries
// likewise.
func TestDiffServeUnmatchedEntries(t *testing.T) {
	old := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 3000, AllocsPerOp: 5},
		{Cell: "c", Mode: "serve", Workers: 8, QPS: 5000, AllocsPerOp: 5},
	}}
	fresh := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 3000, AllocsPerOp: 5},
		{Cell: "c", Mode: "serve-hot", Workers: 4, QPS: 9000, AllocsPerOp: 5},
	}}
	v, infos := DiffServe(old, fresh, DiffOptions{TimingChecks: true})
	if len(v) != 0 {
		t.Fatalf("unmatched entries flagged as violations: %v", v)
	}
	var sawFresh, sawCommitted bool
	for _, i := range infos {
		sawFresh = sawFresh || strings.Contains(i, "serve-hot")
		sawCommitted = sawCommitted || strings.Contains(i, "|8")
	}
	if !sawFresh || !sawCommitted {
		t.Fatalf("unmatched entries not reported informationally: %v", infos)
	}
}

// TestDiffServeZeroBaselineThroughput: a zero-QPS committed record (a
// truncated or hand-edited baseline) skips the timing gate with a note
// instead of dividing into a spurious pass or panic.
func TestDiffServeZeroBaselineThroughput(t *testing.T) {
	old := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 0, AllocsPerOp: 5},
	}}
	fresh := &ServeReport{Records: []ServeRecord{
		{Cell: "c", Mode: "serve", Workers: 4, QPS: 10, AllocsPerOp: 5},
	}}
	v, infos := DiffServe(old, fresh, DiffOptions{TimingChecks: true})
	if len(v) != 0 {
		t.Fatalf("zero-QPS baseline produced violations: %v", v)
	}
	found := false
	for _, i := range infos {
		found = found || strings.Contains(i, "timing gate skipped")
	}
	if !found {
		t.Fatalf("zero-QPS baseline not noted: %v", infos)
	}
}
