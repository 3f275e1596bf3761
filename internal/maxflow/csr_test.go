// CSR equivalence checks: compacting a graph must not change what any
// engine computes — not just the max-flow value, but the exact per-arc
// flow and the exact operation counts, because the CSR index lists each
// vertex's arcs in the same order the Head/Next walk visits them. This
// file is an external test package so it can reach the parallel solver
// without a cycle.
package maxflow_test

import (
	"testing"

	"imflow/internal/flowgraph"
	"imflow/internal/maxflow"
	"imflow/internal/maxflow/parallel"
	"imflow/internal/xrand"
)

// csrSequentialEngines are the deterministic engines with a CSR traversal
// path; for these the compacted run must be bit-identical in flows and
// metrics, not merely in value.
var csrSequentialEngines = []struct {
	name string
	mk   func(*flowgraph.Graph) maxflow.Engine
}{
	{"push-relabel", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewPushRelabel(g) }},
	{"highest-label", func(g *flowgraph.Graph) maxflow.Engine { return maxflow.NewHighestLabel(g) }},
}

func assertGraphsBitIdentical(t *testing.T, name string, round int, list, csr *flowgraph.Graph) {
	t.Helper()
	if list.M() != csr.M() {
		t.Fatalf("%s round %d: arc counts diverged: %d vs %d", name, round, list.M(), csr.M())
	}
	for a := 0; a < list.M(); a++ {
		if list.Flow[a] != csr.Flow[a] {
			t.Fatalf("%s round %d: Flow[%d] = %d on list graph, %d on CSR graph",
				name, round, a, list.Flow[a], csr.Flow[a])
		}
		if list.Residual(a) != csr.Residual(a) {
			t.Fatalf("%s round %d: Residual(%d) = %d on list graph, %d on CSR graph",
				name, round, a, list.Residual(a), csr.Residual(a))
		}
	}
}

// TestPropertyCompactBitIdenticalEngines is the CSR acceptance property:
// for every deterministic engine, interleaved AddEdge / retune / solve
// sequences produce bit-identical per-arc flows, residual capacities, and
// operation metrics whether or not the graph is compacted — and Compact()
// itself never changes a residual capacity or an arc's flow.
func TestPropertyCompactBitIdenticalEngines(t *testing.T) {
	rng := xrand.New(4096)
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(24)
		m := 1 + rng.Intn(4*n)
		proto, s, snk := sprinkle(rng, n, m, 20)
		for _, tc := range csrSequentialEngines {
			list := proto.Clone() // never compacted
			csr := proto.Clone()
			eList := tc.mk(list)
			eCSR := tc.mk(csr)
			csr.Compact()
			for round := 0; round < 4; round++ {
				// Compaction must be payload-neutral even mid-sequence,
				// with flow already on the arcs.
				preFlow := append([]int64(nil), csr.Flow...)
				preCap := append([]int64(nil), csr.Cap...)
				csr.Compact()
				for a := 0; a < csr.M(); a++ {
					if csr.Flow[a] != preFlow[a] || csr.Cap[a] != preCap[a] {
						t.Fatalf("%s trial %d round %d: Compact changed arc %d payload", tc.name, trial, round, a)
					}
				}
				if !csr.Compacted() {
					t.Fatalf("%s trial %d round %d: graph not frozen before solve", tc.name, trial, round)
				}

				got, want := eCSR.Run(s, snk), eList.Run(s, snk)
				if got != want {
					t.Fatalf("%s trial %d round %d: CSR flow %d, list flow %d", tc.name, trial, round, got, want)
				}
				assertGraphsBitIdentical(t, tc.name, round, list, csr)
				if *eCSR.Metrics() != *eList.Metrics() {
					t.Fatalf("%s trial %d round %d: metrics diverged: CSR %+v, list %+v",
						tc.name, trial, round, *eCSR.Metrics(), *eList.Metrics())
				}
				if err := maxflow.Certify(csr, s, snk); err != nil {
					t.Fatalf("%s trial %d round %d: %v", tc.name, trial, round, err)
				}

				// Retune: raise a few forward capacities (the retrieval
				// binary-search pattern) identically on both graphs.
				for a := 0; a < list.M(); a += 2 {
					if rng.Intn(3) == 0 {
						delta := int64(1 + rng.Intn(6))
						list.SetCap(a, list.Cap[a]+delta)
						csr.SetCap(a, csr.Cap[a]+delta)
					}
				}
				// Grow: add the same arc to both; this thaws the CSR graph,
				// and the next iteration re-compacts it.
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v && v != s && u != snk {
					c := int64(1 + rng.Intn(10))
					list.AddEdge(u, v, c)
					csr.AddEdge(u, v, c)
					if csr.Compacted() {
						t.Fatalf("%s trial %d round %d: AddEdge left graph frozen", tc.name, trial, round)
					}
				}
			}
		}
	}
}

// TestCompactParallelEngineValue covers the parallel solver's CSR path:
// scheduling is nondeterministic, so the assertion is value equality plus
// a full flow-conservation audit on the compacted graph.
func TestCompactParallelEngineValue(t *testing.T) {
	rng := xrand.New(8192)
	trials := 30
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		proto, s, snk := sprinkle(rng, 4+rng.Intn(24), 1+rng.Intn(80), 20)
		want := maxflow.NewEdmondsKarp(proto.Clone()).Run(s, snk)
		for _, threads := range []int{1, 2, 4} {
			g := proto.Clone()
			g.Compact()
			e := parallel.New(g, threads)
			if got := e.Run(s, snk); got != want {
				t.Fatalf("trial %d: parallel(%d) on CSR graph flow %d, want %d", trial, threads, got, want)
			}
			if value, err := maxflow.VerifyFlow(g, s, snk); err != nil || value != want {
				t.Fatalf("trial %d: parallel(%d) CSR audit: value %d err %v, want %d", trial, threads, value, err, want)
			}
		}
	}
}
