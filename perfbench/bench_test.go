package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"imflow/internal/experiment"
	"imflow/internal/grid"
	"imflow/internal/httpd"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/xrand"
)

func TestArrivalsReproduceTheirSeed(t *testing.T) {
	a := arrivals(xrand.New(7), 500, 2*time.Second)
	b := arrivals(xrand.New(7), 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed drew two different schedules")
	}
	if reflect.DeepEqual(a, arrivals(xrand.New(8), 500, 2*time.Second)) {
		t.Fatal("two seeds drew the same schedule")
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Fatalf("%d arrivals at 500/s over 2s, want about 1000", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 2*time.Second {
		t.Fatal("arrivals are not ordered inside the window")
	}

	w, _ := findWorkload("churn")
	gen := query.NewGenerator(grid.New(w.n), query.Range, w.load)
	in1 := makeInputs(w, gen, 3, 4*time.Second, 100)
	in2 := makeInputs(w, gen, 3, 4*time.Second, 100)
	if !reflect.DeepEqual(in1, in2) {
		t.Fatal("one seed made two different inputs")
	}
}

// TestOpenLoopTimesFromDue stalls the server on the first request: the
// second request, due while the only sender waits, goes out late, and
// its latency counts from when it was due.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		_ = json.NewEncoder(w).Encode(httpd.QueryResponse{LatencyUs: 1})
	}))
	defer ts.Close()
	c := newClient(ts.Listener.Addr().String(), "/v1/query", 1, time.Now())
	defer c.close()
	start := time.Since(c.clock)
	recs := c.openLoop([]request{{due: 0, n: 1}, {due: 10 * time.Millisecond, n: 1}}, 1, start)

	late := recs[1].sent - recs[1].due
	if late < stall-15*time.Millisecond {
		t.Fatalf("second request went out %v late, want about %v", late, stall-10*time.Millisecond)
	}
	lat := latenciesMs(recs)
	if got := lat[1]; got < ms(late) {
		t.Fatalf("latency %.1fms is below the %.1fms the request waited to be sent", got, ms(late))
	}
	if recs[1].due != start+10*time.Millisecond {
		t.Fatalf("due %v, want %v", recs[1].due, start+10*time.Millisecond)
	}
}

func TestFailedAndLateQueriesAreMisses(t *testing.T) {
	ok := answer{status: http.StatusOK}
	ms := time.Millisecond
	recs := []record{
		{due: 0, done: 1 * ms, n: 1, answers: []answer{ok}},                                      // good
		{due: 0, done: 90 * ms, n: 1, answers: []answer{ok}},                                     // late
		{due: 0, done: 1 * ms, n: 1, answers: []answer{{status: http.StatusServiceUnavailable}}}, // refused
		{due: 0, done: 1 * ms, n: 1, err: errors.New("connection reset")},                        // unanswered
	}
	c := tally(recs)
	if c.attempted != 4 || c.failed != 2 || c.unanswered != 1 {
		t.Fatalf("tally %+v, want 4 attempted, 2 failed, 1 unanswered", c)
	}
	if got, want := goodput(recs, 50*ms, time.Second), 1.0; got != want {
		t.Fatalf("goodput %v/s, want %v/s: only the fast 200 counts", got, want)
	}
	if got, want := cpuPerQuery(4*ms, recs), 2000.0; got != want {
		t.Fatalf("cpu per query %v us, want %v us: the cost is spread over the two 200s only", got, want)
	}
}

func TestSubmitItemsCountPerQuery(t *testing.T) {
	items := make([]httpd.SubmitItem, 8)
	for i := range items {
		items[i] = httpd.SubmitItem{Status: http.StatusOK, Query: &httpd.QueryResponse{ResponseTimeUs: int64(i + 1)}}
	}
	items[5] = httpd.SubmitItem{Status: http.StatusServiceUnavailable, Err: &httpd.ErrorResponse{Error: "faults"}}
	body, _ := json.Marshal(httpd.SubmitResponse{Results: items})

	ans, err := decodeAnswers(http.StatusOK, body, 8)
	if err != nil {
		t.Fatal(err)
	}
	recs := []record{{n: 8, answers: ans}}
	if c := tally(recs); c.attempted != 8 || c.failed != 1 || c.unanswered != 0 {
		t.Fatalf("tally %+v, want 8 attempted, 1 failed", c)
	}
	if got := len(latenciesMs(recs)); got != 7 {
		t.Fatalf("%d latencies, want one per served query (7)", got)
	}

	refused, err := decodeAnswers(http.StatusTooManyRequests, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c := tally([]record{{n: 8, answers: refused}}); c.failed != 8 {
		t.Fatalf("a refused batch failed %d queries, want 8", c.failed)
	}
	if _, err := decodeAnswers(http.StatusOK, body, 9); err == nil {
		t.Fatal("a batch answering 8 of 9 queries decoded")
	}
}

func TestHealthyWindow(t *testing.T) {
	down := []interval{{from: 10, to: 20}}
	for _, c := range []struct {
		from, at time.Duration
		want     bool
	}{{0, 9, true}, {0, 10, false}, {15, 16, false}, {20, 30, false}, {21, 30, true}} {
		if got := healthy(&sample{from: c.from, at: c.at}, down); got != c.want {
			t.Errorf("window [%d,%d]: healthy %v, want %v", c.from, c.at, got, c.want)
		}
	}
}

// TestTracedSolverIsTheSameProgram checks on the paper grid that the
// traced solver returns the same schedules and Stats as a bare
// pr-binary, for unmasked solves, masked solves and in-place failover,
// with both solvers reused across the stream as serve workers reuse them.
func TestTracedSolverIsTheSameProgram(t *testing.T) {
	for _, on := range []bool{false, true} {
		var gate atomic.Bool
		gate.Store(on)
		for exp := 1; exp <= 5; exp++ {
			for _, load := range []query.Load{query.Load1, query.Load2, query.Load3} {
				cfg := experiment.Config{ExpNum: exp, Alloc: experiment.RDA, Type: query.Range, Load: load, N: 8, Queries: 6, Seed: 5}
				inst, err := cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				bare, traced := retrieval.NewPRBinary(), newTracedSolver(nil, &gate)
				var ra, rb retrieval.Result
				for i, p := range inst.Problems {
					solveBoth(t, cfg, i, "solve", bare.SolveInto(p, &ra), traced.SolveInto(p, &rb), &ra, &rb)

					mask := retrieval.NewDiskMask(len(p.Disks))
					mask.MarkFailed(busiest(ra.Schedule, mask))
					solveBoth(t, cfg, i, "masked", bare.SolveMaskedInto(p, mask, &ra), traced.SolveMaskedInto(p, mask, &rb), &ra, &rb)

					d := busiest(ra.Schedule, mask)
					solveBoth(t, cfg, i, "failover", bare.MarkFailed(d, &ra), traced.MarkFailed(d, &rb), &ra, &rb)
				}
				if on && len(traced.solves) != 2*len(inst.Problems) {
					t.Fatalf("%v: %d solve spans for %d solves", cfg, len(traced.solves), 2*len(inst.Problems))
				}
			}
		}
	}
}

func solveBoth(t *testing.T, cfg experiment.Config, i int, what string, errA, errB error, a, b *retrieval.Result) {
	t.Helper()
	var infA, infB *retrieval.InfeasibleError
	if (errA == nil) != (errB == nil) || (errA != nil && (!errors.As(errA, &infA) || !errors.As(errB, &infB))) {
		t.Fatalf("%v query %d %s: bare error %v, traced error %v", cfg, i, what, errA, errB)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatalf("%v query %d %s: schedules differ:\nbare   %+v\ntraced %+v", cfg, i, what, a.Schedule, b.Schedule)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%v query %d %s: stats differ:\nbare   %+v\ntraced %+v", cfg, i, what, a.Stats, b.Stats)
	}
}

// busiest is the live disk serving the most buckets.
func busiest(s *retrieval.Schedule, mask *retrieval.DiskMask) int {
	best := 0
	for j, c := range s.Counts {
		if c > s.Counts[best] && !mask.Failed(j) || mask.Failed(best) {
			best = j
		}
	}
	return best
}

// TestMetricsMatchBenchmarkJSON keeps the emitted metric names, and the
// stationarity guard's bound, in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		if _, err := findWorkload(name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Name == "model_response_ms" && m.Bound != driftBound {
			t.Errorf("model_response_ms bound %v, stationarity guard uses %v", m.Bound, driftBound)
		}
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench emits %v", e2e, endToEndUnits)
	}
	if !reflect.DeepEqual(layers, perLayerUnits) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench emits %v", layers, perLayerUnits)
	}
}
