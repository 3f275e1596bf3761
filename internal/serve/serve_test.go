package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"imflow/internal/cost"
	"imflow/internal/decluster"
	"imflow/internal/grid"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/sim"
	"imflow/internal/storage"
)

// testStream draws a reproducible open-loop stream over a small two-site
// system, mirroring the sim package's test workload.
func testStream(t *testing.T, queries int, seed uint64) (*storage.System, []sim.Query) {
	t.Helper()
	g := grid.New(6)
	spec := sim.StreamSpec{
		System:   storage.Uniform(2, 6, storage.Cheetah),
		Alloc:    decluster.Orthogonal(g),
		Type:     query.Arbitrary,
		Load:     query.Load3,
		Arrivals: sim.UniformArrivals{Lo: cost.FromMillis(1), Hi: cost.FromMillis(4)},
		Queries:  queries,
		Seed:     seed,
	}
	stream, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return spec.System, stream
}

// toServeQueries converts a sim stream into admission requests with dense
// sequence numbers.
func toServeQueries(stream []sim.Query) []Query {
	out := make([]Query, len(stream))
	for i, q := range stream {
		out[i] = Query{Seq: i, Arrival: q.Arrival, Replicas: q.Replicas}
	}
	return out
}

// TestDeterministicMatchesSimReplay is the acceptance cross-check: the
// single-shard deterministic mode must produce bit-identical response
// times (and completion instants) to replaying the same stream through
// the sequential simulator.
func TestDeterministicMatchesSimReplay(t *testing.T) {
	sys, stream := testStream(t, 60, 7)

	replay, err := sim.New(sys, sim.SolverScheduler{Solver: retrieval.NewPRBinary()}).
		Run(append([]sim.Query(nil), stream...))
	if err != nil {
		t.Fatal(err)
	}

	results, err := Serve(context.Background(), sys, toServeQueries(stream), Options{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(replay) {
		t.Fatalf("served %d queries, replay has %d", len(results), len(replay))
	}
	for i, r := range results {
		if r.ResponseTime != replay[i].ResponseTime {
			t.Fatalf("query %d: serve response %v, replay %v", i, r.ResponseTime, replay[i].ResponseTime)
		}
		if r.Finish != replay[i].Finish {
			t.Fatalf("query %d: serve finish %v, replay %v", i, r.Finish, replay[i].Finish)
		}
		if r.Seq != i {
			t.Fatalf("query %d: recorded seq %d", i, r.Seq)
		}
	}
}

// TestDeterministicBatchInvariance pins that batching is pure admission
// coalescing: shrinking the batch size (more lock round-trips, same order)
// must not change a single response.
func TestDeterministicBatchInvariance(t *testing.T) {
	sys, stream := testStream(t, 40, 11)
	qs := toServeQueries(stream)
	a, err := Serve(context.Background(), sys, qs, Options{Deterministic: true, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Serve(context.Background(), sys, qs, Options{Deterministic: true, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ResponseTime != b[i].ResponseTime || a[i].Finish != b[i].Finish {
			t.Fatalf("query %d: batch=1 %v/%v, batch=32 %v/%v",
				i, a[i].ResponseTime, a[i].Finish, b[i].ResponseTime, b[i].Finish)
		}
	}
}

// TestConcurrentServesEveryQuery drives the online mode with several
// workers and checks full coverage: every sequence number served exactly
// once, by a real worker, with a finite positive response, and every
// schedule (observed through the hook before buffer reuse) valid for the
// problem it was solved against.
func TestConcurrentServesEveryQuery(t *testing.T) {
	sys, stream := testStream(t, 80, 3)

	var mu sync.Mutex
	var hookErrs []string
	scheduled := make([]int, len(stream))
	opt := Options{
		Workers: 4,
		Batch:   4,
		OnSchedule: func(worker int, q *Query, p *retrieval.Problem, s *retrieval.Schedule) {
			err := p.ValidateSchedule(s)
			mu.Lock()
			defer mu.Unlock()
			scheduled[q.Seq]++
			if err != nil {
				hookErrs = append(hookErrs, err.Error())
			}
		},
	}
	results, err := Serve(context.Background(), sys, toServeQueries(stream), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hookErrs {
		t.Errorf("invalid schedule: %s", e)
	}
	for i, r := range results {
		if scheduled[i] != 1 {
			t.Fatalf("query %d scheduled %d times", i, scheduled[i])
		}
		if r.Worker < 0 || r.Worker >= 4 {
			t.Fatalf("query %d served by worker %d", i, r.Worker)
		}
		if r.ResponseTime <= 0 || r.ResponseTime == cost.Max {
			t.Fatalf("query %d response %v", i, r.ResponseTime)
		}
		if r.Latency < 0 {
			t.Fatalf("query %d negative latency %v", i, r.Latency)
		}
	}
}

// TestWorkerCountDefault pins Workers <= 0 to GOMAXPROCS.
func TestWorkerCountDefault(t *testing.T) {
	sys, stream := testStream(t, 4, 1)
	s, err := New(sys, len(stream), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() < 1 {
		t.Fatalf("defaulted worker count %d", s.Workers())
	}
}

// TestMisuseErrors covers the constructor and lifecycle error paths.
func TestMisuseErrors(t *testing.T) {
	sys, stream := testStream(t, 4, 2)
	if _, err := New(sys, len(stream), Options{Deterministic: true, Workers: 2}); err == nil {
		t.Error("deterministic multi-shard accepted")
	}
	if _, err := New(sys, 0, Options{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(nil, 4, Options{}); err == nil {
		t.Error("nil system accepted")
	}

	s, err := New(sys, len(stream), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(context.Background(), Query{Seq: 0}); err == nil {
		t.Error("Submit before Start accepted")
	}
	if _, err := s.Wait(); err == nil {
		t.Error("Wait before Start accepted")
	}
	s.Start(context.Background())
	if err := s.SubmitTo(context.Background(), 99, Query{Seq: 0}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := s.Submit(context.Background(), Query{Seq: len(stream)}); err == nil {
		t.Error("out-of-range seq accepted")
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err == nil {
		t.Error("second Wait accepted")
	}
}

// TestDeterministicRejectsOutOfOrderArrivals pins the deterministic-mode
// contract: arrivals must be non-decreasing, exactly like sim.Submit.
func TestDeterministicRejectsOutOfOrderArrivals(t *testing.T) {
	sys, stream := testStream(t, 2, 9)
	qs := toServeQueries(stream)
	qs[0].Arrival, qs[1].Arrival = 1000, 10 // regress the clock
	_, err := Serve(context.Background(), sys, qs, Options{Deterministic: true, Batch: 1})
	if err == nil {
		t.Fatal("out-of-order arrivals accepted")
	}
	if !strings.Contains(err.Error(), "ordered arrivals") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSolverErrorPropagates forces a solver failure (a query whose bucket
// has a replica on a disk that cannot finish one block) and checks the
// error surfaces from Wait while the remaining stream drains.
func TestSolverErrorPropagates(t *testing.T) {
	sys, stream := testStream(t, 12, 4)
	qs := toServeQueries(stream)
	// An empty replica list fails Problem.Validate inside the solver.
	qs[3].Replicas = [][]int{{}}
	_, err := Serve(context.Background(), sys, qs, Options{Workers: 2, Batch: 2})
	if err == nil {
		t.Fatal("solver error did not surface")
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Fatalf("error lost worker attribution: %v", err)
	}
}

// hotQueries builds an admission stream that repeats one replica structure
// for every query, so every query competes for the same disks.
func hotQueries(stream []sim.Query) []Query {
	qs := toServeQueries(stream)
	for i := range qs {
		qs[i].Replicas = qs[0].Replicas
	}
	return qs
}

// TestServeWarmSolveStats pins the warm-start counter: a single-shard
// stream of structure-identical queries warms from the second solver call
// on, so WarmSolves is exactly Solves-1 (every query solves).
func TestServeWarmSolveStats(t *testing.T) {
	sys, stream := testStream(t, 30, 3)
	qs := hotQueries(stream)
	s, err := New(sys, len(qs), Options{Workers: 1, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	for _, q := range qs {
		if err := s.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	ss := s.SolveStats()
	if ss.Solves != int64(len(qs)) {
		t.Fatalf("solves %d, want %d", ss.Solves, len(qs))
	}
	if ss.WarmSolves != ss.Solves-1 {
		t.Errorf("warm solves %d of %d, want all but the first", ss.WarmSolves, ss.Solves)
	}
}

// TestDeterministicDeadlineModelClock is the deterministic-deadline
// regression test: with a Deadline on every query, replay must serve the
// whole stream (the model age at serve time is zero — the clock is the
// query's own arrival) and stay bit-identical to the sim replay, no matter
// how slowly the wall clock ticks past the tiny deadline.
func TestDeterministicDeadlineModelClock(t *testing.T) {
	sys, stream := testStream(t, 50, 19)

	replay, err := sim.New(sys, sim.SolverScheduler{Solver: retrieval.NewPRBinary()}).
		Run(append([]sim.Query(nil), stream...))
	if err != nil {
		t.Fatal(err)
	}

	qs := toServeQueries(stream)
	for i := range qs {
		// Far below any plausible wall-clock scheduling jitter: the old
		// wall-clock check rejected these nondeterministically.
		qs[i].Deadline = time.Microsecond
	}
	results, err := Serve(context.Background(), sys, qs, Options{Deterministic: true, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Rejected {
			t.Fatalf("query %d rejected by a model-clock deadline of age zero", i)
		}
		if r.ResponseTime != replay[i].ResponseTime || r.Finish != replay[i].Finish {
			t.Fatalf("query %d: serve (%v,%v), sim (%v,%v)", i,
				r.ResponseTime, r.Finish, replay[i].ResponseTime, replay[i].Finish)
		}
	}
}

// TestConcurrentBatchSeesPredecessorLoads pins the online path's
// intra-batch load feedback: within one concurrent-mode admission batch,
// every query is solved against a disk table whose load X_j already
// includes the blocks each in-batch predecessor scheduled on disk j, times
// that disk's service time. The batch is driven through the worker
// directly (white-box) so it is exactly one admission batch on a fresh
// server, where the predecessors are the only source of load.
func TestConcurrentBatchSeesPredecessorLoads(t *testing.T) {
	sys, stream := testStream(t, 8, 31)
	qs := hotQueries(stream)

	type seen struct {
		loads  []cost.Micros
		counts []int64
	}
	var got []seen
	s, err := New(sys, len(qs), Options{
		Workers: 1,
		Batch:   len(qs),
		OnSchedule: func(worker int, q *Query, p *retrieval.Problem, sch *retrieval.Schedule) {
			v := seen{counts: append([]int64(nil), sch.Counts...)}
			for j, d := range p.Disks {
				if d.Service != sys.Disks[j].Service {
					t.Errorf("query %d: disk %d service %v, system %v", q.Seq, j, d.Service, sys.Disks[j].Service)
				}
				v.loads = append(v.loads, d.Load)
			}
			got = append(got, v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.started = true
	s.start = time.Now()
	if err := s.workers[0].serveBatch(qs); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("OnSchedule saw %d queries, want %d", len(got), len(qs))
	}
	want := make([]cost.Micros, sys.NumDisks())
	loaded := 0
	for i, v := range got {
		for j := range want {
			if v.loads[j] != want[j] {
				t.Fatalf("query %d: disk %d load %v, want %v from its in-batch predecessors", i, j, v.loads[j], want[j])
			}
			if want[j] > 0 {
				loaded++
			}
		}
		for j, k := range v.counts {
			want[j] = cost.SatAdd(want[j], cost.SatMul(cost.Micros(k), sys.Disks[j].Service))
		}
	}
	if loaded == 0 {
		t.Fatal("no query saw a predecessor's load; the batch does not exercise intra-batch feedback")
	}
}
