package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/fault"
	"imflow/internal/retrieval"
	"imflow/internal/serve"
)

// serveBatch is serve.Options.Batch's default: a worker coalesces at
// most this many queries into one admission batch and takes one
// load-and-health snapshot per batch. The snapshot a schedule was
// solved under was therefore taken after the OnSchedule call serveBatch
// calls earlier on the same worker.
const serveBatch = 16

// sample is one served schedule copied out of the OnSchedule hook, with
// the interval of the run clock the worker's snapshot lies in.
type sample struct {
	p        retrieval.Problem
	s        retrieval.Schedule
	from, at time.Duration
}

// sampler copies every stride-th schedule the server commits, up to a
// cap, for the oracle check after the timed window.
type sampler struct {
	clock  time.Time
	stride int64
	max    int
	stamp  bool // record OnSchedule times, for workloads with faults

	calls   atomic.Int64
	mu      sync.Mutex
	samples []sample // guarded by mu

	// recent[w] is worker w's ring of its last serveBatch OnSchedule
	// times; only worker w's goroutine touches it.
	recent [][serveBatch]time.Duration
	nCalls []int
}

func newSampler(clock time.Time, workers int, stride int64, max int, stamp bool) *sampler {
	if stride < 1 {
		stride = 1
	}
	return &sampler{
		clock: clock, stride: stride, max: max, stamp: stamp,
		recent: make([][serveBatch]time.Duration, workers),
		nCalls: make([]int, workers),
	}
}

// observe is called from serve's OnSchedule hook.
func (sm *sampler) observe(worker int, p *retrieval.Problem, s *retrieval.Schedule) {
	var from, at time.Duration
	if sm.stamp {
		at = time.Since(sm.clock)
		k := sm.nCalls[worker] % serveBatch
		from = sm.recent[worker][k] // zero until the ring first fills
		sm.recent[worker][k] = at
		sm.nCalls[worker]++
	}
	if (sm.calls.Add(1)-1)%sm.stride != 0 {
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.samples) >= sm.max {
		return
	}
	cp := sample{from: from, at: at}
	cp.p.Disks = append([]retrieval.DiskParams(nil), p.Disks...)
	cp.p.Replicas = make([][]int, len(p.Replicas))
	for i, r := range p.Replicas {
		cp.p.Replicas[i] = append([]int(nil), r...)
	}
	cp.s.Assignment = append([]int(nil), s.Assignment...)
	cp.s.Counts = append([]int64(nil), s.Counts...)
	cp.s.ResponseTime = s.ResponseTime
	sm.samples = append(sm.samples, cp)
}

func (sm *sampler) taken() []sample {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.samples
}

// interval is a span of the run clock during which a disk was, or may
// have been, down: from just before FailDisk to just after RecoverDisk.
type interval struct{ from, to time.Duration }

// faulter applies a fault schedule to a live server on the run clock.
type faulter struct {
	fs    *serve.Server
	sched *fault.Schedule
	clock time.Time
	down  []interval
	err   error
}

// run applies every event before end (offsets of the run clock, with the
// schedule's model time counted from start), then recovers whatever is
// still down. It returns once the last disk is back.
func (f *faulter) run(start, end time.Duration) {
	open := map[int]time.Duration{}
	for _, e := range f.sched.Events {
		at := start + time.Duration(e.At)*time.Microsecond
		if at >= end {
			break
		}
		if d := at - time.Since(f.clock); d > 0 {
			time.Sleep(d)
		}
		switch e.Kind {
		case fault.Fail:
			open[e.Disk] = time.Since(f.clock)
			f.note(f.fs.FailDisk(e.Disk))
		case fault.Recover:
			f.recover(e.Disk, open)
		}
	}
	if d := end - time.Since(f.clock); d > 0 {
		time.Sleep(d)
	}
	for disk := range open {
		f.recover(disk, open)
	}
}

func (f *faulter) recover(disk int, open map[int]time.Duration) {
	f.note(f.fs.RecoverDisk(disk))
	f.down = append(f.down, interval{open[disk], time.Since(f.clock)})
	delete(open, disk)
}

func (f *faulter) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// healthy reports whether a sample's snapshot window missed every fault
// interval, so it was solved with every disk up.
func healthy(s *sample, down []interval) bool {
	for _, iv := range down {
		if iv.from <= s.at && s.from <= iv.to {
			return false
		}
	}
	return true
}

// checkResult is the outcome of the oracle check.
type checkResult struct {
	checked, optimal int
	errs             []string
}

// checkSamples validates up to max healthy samples and compares each
// schedule's response time with an independent oracle's optimum, using
// one goroutine per CPU.
func checkSamples(samples []sample, down []interval, max int) checkResult {
	var todo []*sample
	for i := range samples {
		if len(todo) < max && healthy(&samples[i], down) {
			todo = append(todo, &samples[i])
		}
	}
	var res checkResult
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				err := checkOne(todo[i])
				mu.Lock()
				res.checked++
				if err == nil {
					res.optimal++
				} else {
					res.errs = append(res.errs, err.Error())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

func checkOne(s *sample) error {
	if err := s.p.ValidateSchedule(&s.s); err != nil {
		return err
	}
	want, err := retrieval.NewOracle().Solve(&s.p)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if got := s.s.ResponseTime; got != want.Schedule.ResponseTime {
		return fmt.Errorf("schedule of %d buckets: response time %v, oracle optimum %v",
			len(s.p.Replicas), got, want.Schedule.ResponseTime)
	}
	return nil
}
