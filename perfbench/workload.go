package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"imflow/internal/experiment"
	"imflow/internal/httpd"
	"imflow/internal/query"
	"imflow/internal/xrand"
)

// cellSeed builds the storage system and allocation of every workload's
// cell. It is imflow-serve's default, so the benchmark serves the same
// cell a default deployment does; --seed varies only the queries.
const cellSeed = 42

// workload is one traffic mix. Rates are fixed absolute values, chosen
// once on the reference host (see README.md) and never re-calibrated per
// run: a calibrated rate moves with the code under test and hides its
// gains.
type workload struct {
	name string
	load query.Load
	n    int
	// batch is the queries per request: 1 posts /v1/query, more posts
	// /v1/submit batches.
	batch int
	// recurring is the share of queries drawn from a fixed set of shapes
	// (range queries repeated verbatim), the rest are fresh draws.
	recurring float64
	shapes    int
	// faults applies a seeded disk fail/recover schedule, at most one
	// disk down at a time, through FailDisk/RecoverDisk.
	faults bool
	// nominal and busy are the open-loop rates in queries per second.
	// nominal sits well below the measured model capacity; busy is about
	// 40% of the reference host's closed-loop capacity (see README.md).
	nominal, busy float64
	// nominalTail and busyTail are the percentiles of the provenance's
	// wall nominal_tail_ms and busy_tail_ms: the highest that has at least
	// ten independent samples beyond it (a /v1/submit batch is one
	// sample: its queries share one round trip) and repeats within a
	// tenth from run to run on the reference host.
	nominalTail, busyTail float64
	// limit is the latency limit of the provenance's wall goodput_qps.
	limit time.Duration
	// samples is how many schedules are checked against the oracle.
	samples int
	// warmup is the requests sent closed-loop during set-up.
	warmup int
}

var workloads = []workload{
	{
		name: "edge-small", load: query.Load3, n: 20, batch: 1,
		nominal: 800, busy: 3000, nominalTail: 90, busyTail: 90, limit: 20 * time.Millisecond,
		samples: 256, warmup: 2000,
	},
	{
		name: "solve-large", load: query.Load2, n: 60, batch: 1,
		nominal: 40, busy: 120, nominalTail: 90, busyTail: 90, limit: 250 * time.Millisecond,
		samples: 8, warmup: 100,
	},
	{
		name: "churn", load: query.Load2, n: 20, batch: 8,
		recurring: 0.9, shapes: 8, faults: true,
		nominal: 40, busy: 1400, nominalTail: 85, busyTail: 90, limit: 100 * time.Millisecond,
		samples: 128, warmup: 200,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) cell() experiment.Config {
	return experiment.Config{
		ExpNum: 2, Alloc: experiment.RDA, Type: query.Range, Load: w.load,
		N: w.n, Queries: 1, Seed: cellSeed,
	}
}

// path is the endpoint the workload posts to.
func (w workload) path() string {
	if w.batch > 1 {
		return "/v1/submit"
	}
	return "/v1/query"
}

// request is one HTTP request of an open-loop schedule: its due time
// (offset from the phase start), its body, and the bucket lists of the
// queries it carries.
type request struct {
	due     time.Duration
	body    []byte
	n       int
	queries [][]int
}

// inputs are everything a run sends, drawn from the seed before set-up.
type inputs struct {
	warmup  [][]byte
	nominal []request
	busy    []request
	closed  [][]byte // capacity-phase bodies, cycled if the phase outruns them
	// meanBuckets is the mean query size of the open-loop phases; with
	// the disks' service times it gives the storage bound on throughput.
	meanBuckets float64
}

// phases splits the measured window: the nominal phase is the longest so
// its tail rests on enough samples at the lowest rate.
func phases(window time.Duration) (nominal, busy, capacity time.Duration) {
	nominal = window * 45 / 100
	busy = window / 4
	return nominal, busy, window - nominal - busy
}

// querySource draws a workload's queries from one seeded stream.
type querySource struct {
	w      workload
	gen    *query.Generator
	rng    *xrand.Source
	shapes [][]int
}

func newQuerySource(w workload, gen *query.Generator, seed uint64) *querySource {
	qs := &querySource{w: w, gen: gen, rng: xrand.New(seed)}
	// The recurring shapes belong to the workload, like the cell: they
	// are drawn from the cell seed, and --seed only picks among them.
	// Eight shapes drawn per seed would make each seed a different
	// workload, with its own hot disks and its own capacity.
	shapeRng := xrand.New(cellSeed)
	n := gen.Grid.N()
	for i := 0; i < w.shapes; i++ {
		// Stratify the recurring shapes over the access count k =
		// ceil(size/N) so their mean size tracks the cell's.
		lo := 1 + i*n/w.shapes
		hi := (i + 1) * n / w.shapes
		for {
			b := gen.Query(shapeRng)
			if k := (len(b) + n - 1) / n; k >= lo && k <= hi {
				qs.shapes = append(qs.shapes, b)
				break
			}
		}
	}
	return qs
}

func (qs *querySource) next() []int {
	if len(qs.shapes) > 0 && qs.rng.Float64() < qs.w.recurring {
		return qs.shapes[qs.rng.Intn(len(qs.shapes))]
	}
	return qs.gen.Query(qs.rng)
}

// body draws one request body and returns it with its queries.
func (qs *querySource) body() ([]byte, [][]int) {
	batch := make([][]int, qs.w.batch)
	for i := range batch {
		batch[i] = qs.next()
	}
	if qs.w.batch == 1 {
		return mustJSON(httpd.QueryRequest{Buckets: batch[0]}), batch
	}
	sr := httpd.SubmitRequest{Queries: make([]httpd.QueryRequest, len(batch))}
	for i, b := range batch {
		sr.Queries[i].Buckets = b
	}
	return mustJSON(sr), batch
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// arrivals draws a Poisson arrival schedule: exponential gaps at rate
// requests per second over [0, dur).
func arrivals(rng *xrand.Source, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, due)
	}
}

// makeInputs draws every request of a run from seed. Arrival times and
// bodies come from separate streams, and the capacity-phase bodies are
// drawn last, so the open-loop schedule does not depend on how many of
// them are drawn.
func makeInputs(w workload, gen *query.Generator, seed uint64, window time.Duration, closedQPS float64) inputs {
	root := xrand.New(seed)
	qs := newQuerySource(w, gen, root.Uint64())
	arr := root.Fork()
	var in inputs
	for i := 0; i < w.warmup; i += w.batch {
		b, _ := qs.body()
		in.warmup = append(in.warmup, b)
	}
	nom, busy, capa := phases(window)
	buckets, queries := 0, 0
	open := func(rate float64, dur time.Duration) []request {
		var reqs []request
		for _, due := range arrivals(arr, rate/float64(w.batch), dur) {
			b, qq := qs.body()
			for _, q := range qq {
				buckets += len(q)
			}
			queries += len(qq)
			reqs = append(reqs, request{due: due, body: b, n: w.batch, queries: qq})
		}
		return reqs
	}
	in.nominal = open(w.nominal, nom)
	in.busy = open(w.busy, busy)
	if queries > 0 {
		in.meanBuckets = float64(buckets) / float64(queries)
	}
	nClosed := int(closedQPS*capa.Seconds()/float64(w.batch)) + 1
	for i := 0; i < nClosed; i++ {
		b, _ := qs.body()
		in.closed = append(in.closed, b)
	}
	return in
}
