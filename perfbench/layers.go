package main

import (
	"fmt"
	"time"

	"imflow/internal/httpd"
)

// perLayer computes the traced run's per-layer metrics. Distributions
// cover all three phases unless named otherwise; counters are deltas of
// the server's own Stats across the measured window.
func (b *bench) perLayer(srv *server, ph phaseRecords, chk checkResult, overheadPct float64) (map[string]metric, error) {
	m := newMetricSet(perLayerUnits)
	all := append(append(append([]record(nil), ph.nominal...), ph.busy...), ph.capacity...)

	// loadgen: a validity check, measured where the guard applies.
	m.put("loadgen.late_ms.p99", pct(lateMs(ph.nominal), 99))

	// httpd: the client's round trip minus the serve layer's latency
	// covers net/http, decode, the rate gate, admission, dispatch,
	// encoding and the loopback.
	var overhead, serveLat []float64
	served(all, func(r *record, i int) {
		lat := float64(r.answers[i].resp.LatencyUs)
		serveLat = append(serveLat, lat)
		overhead = append(overhead, us(r.done-r.sent)-lat)
	})
	m.put("httpd.overhead_us.p50", pct(overhead, 50))
	m.put("httpd.overhead_us.p99", pct(overhead, 99))
	dec, err := b.decodeMeanUs(httpd.Limits{Buckets: ph.before.Buckets, Disks: ph.before.Disks})
	if err != nil {
		return nil, err
	}
	m.put("httpd.decode_us.mean", dec)
	hb, ha := ph.before, ph.after
	m.put("httpd.retries", float64(ha.Retries-hb.Retries))
	m.put("httpd.breaker_denied", float64(ha.BreakerDenied-hb.BreakerDenied))
	m.put("httpd.fault_exhausted", float64(ha.FaultExhausted-hb.FaultExhausted))
	m.put("httpd.shed", float64(ha.ShedRejected+ha.ShedEvicted-hb.ShedRejected-hb.ShedEvicted))

	// serve
	waits, joined := joinWaits(all, srv.trace)
	m.put("serve.latency_us.p50", pct(serveLat, 50))
	m.put("serve.latency_us.p99", pct(serveLat, 99))
	m.put("serve.wait_us.p50", pct(waits, 50))
	m.put("serve.wait_us.p99", pct(waits, 99))
	m.put("serve.queue_depth.mean", ph.queueDepth)
	sb, sa := hb.Serve, ha.Serve
	m.put("serve.warm_share", share(sa.WarmSolves-sb.WarmSolves, sa.Solves-sb.Solves))
	fb, fa := hb.Fault, ha.Fault
	m.put("serve.failovers", float64(fa.Failovers-fb.Failovers))
	m.put("serve.fault_retries", float64(fa.Retries-fb.Retries))
	m.put("serve.degraded_share", share(fa.DegradedQueries-fb.DegradedQueries, ha.Served-hb.Served))

	// retrieval and maxflow, from the solver and engine wrappers.
	var solve, self, runs, repairs []float64
	var probes, steps, pushes, relabels, globals, scans int64
	for _, t := range srv.trace.solvers {
		for _, sp := range t.solves {
			solve = append(solve, us(sp.total))
			self = append(self, us(sp.total-sp.engine))
			probes += int64(sp.stats.MaxflowRuns)
			steps += int64(sp.stats.BinarySteps)
			pushes += sp.stats.Flow.Pushes
			relabels += sp.stats.Flow.Relabels
			globals += sp.stats.Flow.GlobalRelabels
			scans += sp.stats.Flow.ArcScans
		}
		for _, d := range t.runs {
			runs = append(runs, us(d))
		}
		for _, d := range t.repairs {
			repairs = append(repairs, us(d))
		}
	}
	n := int64(len(solve))
	m.put("retrieval.solve_us.p50", pct(solve, 50))
	m.put("retrieval.solve_us.p99", pct(solve, 99))
	m.put("retrieval.repair_us.p50", pct(repairs, 50))
	m.put("retrieval.self_us.p50", pct(self, 50))
	m.put("retrieval.probes_per_solve", share(probes, n))
	m.put("retrieval.binary_steps_per_solve", share(steps, n))
	m.put("maxflow.run_us.p50", pct(runs, 50))
	m.put("maxflow.pushes_per_solve", share(pushes, n))
	m.put("maxflow.relabels_per_solve", share(relabels, n))
	m.put("maxflow.global_relabels_per_solve", share(globals, n))
	m.put("maxflow.arc_scans_per_solve", share(scans, n))

	// The run itself.
	m.put("trace.joined_share", joined)
	m.put("trace.overhead_pct", overheadPct)
	m.put("check.samples", float64(chk.checked))
	return m.done()
}

// joinWaits joins each served query to the solve its worker committed
// for it and returns the serve-side wait (serve latency minus solve
// time: queueing, batching and write-back) of every joined query, with
// the share of served queries joined. The answer names its shard, which
// is the serve worker, and its model response time; OnSchedule saw both
// for every committed schedule. Queries with equal response times on one
// worker join in commit order, so the join is exact per distribution,
// not per query.
func joinWaits(recs []record, tr *tracer) ([]float64, float64) {
	type key struct {
		worker int
		resp   int64
	}
	pending := map[key][]time.Duration{}
	for w, cs := range tr.commits {
		for _, c := range cs {
			k := key{w, c.resp}
			pending[k] = append(pending[k], c.solve)
		}
	}
	var waits []float64
	total := 0
	served(recs, func(r *record, i int) {
		total++
		a := &r.answers[i].resp
		k := key{a.Shard, a.ResponseTimeUs}
		q := pending[k]
		if len(q) == 0 {
			return
		}
		pending[k] = q[1:]
		waits = append(waits, float64(a.LatencyUs)-us(q[0]))
	})
	return waits, share(int64(len(waits)), int64(total))
}

// decodeMeanUs times the front end's request decoder over the run's
// open-loop bodies and returns the mean per body.
func (b *bench) decodeMeanUs(lim httpd.Limits) (float64, error) {
	const maxBodies = 4096
	var bodies [][]byte
	for _, reqs := range [][]request{b.in.nominal, b.in.busy} {
		for _, r := range reqs {
			if len(bodies) < maxBodies {
				bodies = append(bodies, r.body)
			}
		}
	}
	start := time.Now()
	for _, body := range bodies {
		var err error
		if b.w.batch > 1 {
			_, err = httpd.DecodeSubmit(body, lim)
		} else {
			_, err = httpd.DecodeQuery(body, lim)
		}
		if err != nil {
			return 0, fmt.Errorf("decode: %w", err)
		}
	}
	return us(time.Since(start)) / float64(max(len(bodies), 1)), nil
}
