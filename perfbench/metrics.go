package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/experiment"
	"imflow/internal/retrieval"
	"imflow/internal/sim"
	"imflow/internal/stats"
)

// endToEndUnits are the metrics an untraced run prints, with their
// units; BENCHMARK.json lists the same.
var endToEndUnits = map[string]string{
	"setup_s":                  "s",
	"nominal.cpu_us_per_query": "us",
	"busy.cpu_us_per_query":    "us",
	"answered_share":           "share",
	"model_response_ms":        "ms",
	"optimal_share":            "share",
}

// perLayerUnits are the metrics the traced run prints, with their units;
// BENCHMARK.json lists the same.
var perLayerUnits = map[string]string{
	"loadgen.late_ms.p99":               "ms",
	"httpd.overhead_us.p50":             "us",
	"httpd.overhead_us.p99":             "us",
	"httpd.decode_us.mean":              "us",
	"httpd.retries":                     "count",
	"httpd.breaker_denied":              "count",
	"httpd.fault_exhausted":             "count",
	"httpd.shed":                        "count",
	"serve.latency_us.p50":              "us",
	"serve.latency_us.p99":              "us",
	"serve.wait_us.p50":                 "us",
	"serve.wait_us.p99":                 "us",
	"serve.queue_depth.mean":            "count",
	"serve.warm_share":                  "share",
	"serve.failovers":                   "count",
	"serve.fault_retries":               "count",
	"serve.degraded_share":              "share",
	"retrieval.solve_us.p50":            "us",
	"retrieval.solve_us.p99":            "us",
	"retrieval.repair_us.p50":           "us",
	"retrieval.self_us.p50":             "us",
	"retrieval.probes_per_solve":        "count",
	"retrieval.binary_steps_per_solve":  "count",
	"maxflow.run_us.p50":                "us",
	"maxflow.pushes_per_solve":          "count",
	"maxflow.relabels_per_solve":        "count",
	"maxflow.global_relabels_per_solve": "count",
	"maxflow.arc_scans_per_solve":       "count",
	"trace.joined_share":                "share",
	"trace.overhead_pct":                "%",
	"check.samples":                     "count",
}

// metricSet collects one run's metrics against the list it must print.
type metricSet struct {
	units map[string]string
	out   map[string]metric
}

func newMetricSet(units map[string]string) metricSet {
	return metricSet{units: units, out: map[string]metric{}}
}

func (s metricSet) put(name string, v float64) {
	unit, ok := s.units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	s.out[name] = metric{v, unit}
}

// done returns the metrics, or an error naming one that was never put.
func (s metricSet) done() (map[string]metric, error) {
	for name := range s.units {
		if _, ok := s.out[name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return s.out, nil
}

// counts are a set of records tallied per query: a /v1/submit request
// carries several queries, and each is attempted, and fails, on its own.
type counts struct {
	attempted  int
	failed     int // queries without a 200, unanswered ones included
	unanswered int // queries the generator got no answer for
}

func tally(recs []record) counts {
	var c counts
	for _, r := range recs {
		c.attempted += r.n
		if r.err != nil || len(r.answers) != r.n {
			c.unanswered += r.n
			c.failed += r.n
			continue
		}
		for _, a := range r.answers {
			if a.status != http.StatusOK {
				c.failed++
			}
		}
	}
	return c
}

// served calls fn for every query answered with a 200, with its index
// in the request.
func served(recs []record, fn func(r *record, i int)) {
	for k := range recs {
		r := &recs[k]
		if r.err != nil {
			continue
		}
		for i := range r.answers {
			if r.answers[i].status == http.StatusOK {
				fn(r, i)
			}
		}
	}
}

// latenciesMs are the served queries' latencies from their due times.
func latenciesMs(recs []record) []float64 {
	var out []float64
	served(recs, func(r *record, _ int) { out = append(out, ms(r.done-r.due)) })
	return out
}

// goodput is the queries per second over dur that got a 200 within
// limit; failed and late queries are misses.
func goodput(recs []record, limit, dur time.Duration) float64 {
	good := 0
	served(recs, func(r *record, _ int) {
		if r.done-r.due <= limit {
			good++
		}
	})
	return float64(good) / dur.Seconds()
}

// cpuPerQuery is cpu spread over the queries of recs that got a 200, in
// microseconds per query.
func cpuPerQuery(cpu time.Duration, recs []record) float64 {
	n := 0
	served(recs, func(*record, int) { n++ })
	if n == 0 {
		return 0
	}
	return us(cpu) / float64(n)
}

// model is a phase's paper objective: each served query's model
// response, and its wait, the part of it that other requests added, in
// milliseconds and ordered by due time.
type model struct{ resp, wait []float64 }

// modelOf computes the model of recs, which must carry their queries. A
// query's wait is its response minus the response it would have had if
// its request had been alone: the request's queries replayed in order on
// idle disks. A /v1/submit batch thus keeps the queueing among its own
// queries, and the wait is what the backlog of other requests added.
func modelOf(recs []record, inst *experiment.Instance) model {
	sorted := append([]record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].due < sorted[j].due })
	alone := aloneResponsesMs(sorted, inst)
	var m model
	for k := range sorted {
		served(sorted[k:k+1], func(r *record, i int) {
			resp := float64(r.answers[i].resp.ResponseTimeUs) / 1e3
			m.resp = append(m.resp, resp)
			m.wait = append(m.wait, resp-alone[k][i])
		})
	}
	return m
}

// aloneResponsesMs replays each request's queries, in order, through a
// simulator over idle disks, one goroutine per CPU.
func aloneResponsesMs(recs []record, inst *experiment.Instance) [][]float64 {
	out := make([][]float64, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := sim.SolverScheduler{Solver: retrieval.NewPRBinary()}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(recs) {
					return
				}
				s := sim.New(inst.System, sched)
				for _, q := range recs[k].queries {
					p := experiment.BuildProblem(inst.System, inst.Alloc, q)
					res, err := s.Submit(sim.Query{Replicas: p.Replicas})
					if err != nil {
						panic(err) // the server just solved this query; its bucket ids are valid
					}
					out[k] = append(out[k], float64(res.ResponseTime)/1e3)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// drift is how far the model wait grew across the phase: the median
// wait of its last third minus that of its first third, as a share of
// the phase's mean model response. A rate above the model capacity grows
// a backlog that every later query waits behind, so the median wait
// climbs with it. The waits leave out what each request costs alone,
// and the medians leave out the few requests that arrived in a cluster,
// so the thirds compare the backlog only, not which large queries or
// heavy batches each third happened to draw.
func (m model) drift() float64 {
	k := len(m.wait) / 3
	if k == 0 {
		return 0
	}
	return (stats.Median(m.wait[len(m.wait)-k:]) - stats.Median(m.wait[:k])) / stats.Mean(m.resp)
}

// lateMs is how far behind its schedule the generator sent each request.
func lateMs(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.sent - r.due)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct is a percentile that tolerates an empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// share is num/den, 0 for an empty base.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
