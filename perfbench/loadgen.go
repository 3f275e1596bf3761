package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"imflow/internal/httpd"
)

// answer is one query's outcome: its HTTP status (0 when the request got
// no answer at all) and, on a 200, the server's response.
type answer struct {
	status int
	resp   httpd.QueryResponse
}

// record is one HTTP request as the generator saw it. Times are offsets
// from the run clock. Latency runs from due, not from sent: a stalled
// sender delays the requests queued behind it, and that wait is part of
// what a user sees.
type record struct {
	due, sent, done time.Duration
	n               int     // queries the request carried
	queries         [][]int // their bucket lists, when the schedule knows them
	answers         []answer
	err             error // transport or decode failure
}

// client posts request bodies to one endpoint of a loopback server over
// at most conns keep-alive connections.
type client struct {
	hc    *http.Client
	url   string
	clock time.Time // the run clock every record is stamped against
}

func newClient(addr, path string, conns int, clock time.Time) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, url: "http://" + addr + path, clock: clock}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send posts one body and returns its record; sent and done are stamped
// around the round trip.
func (c *client) send(body []byte, n int) record {
	rec := record{n: n, sent: time.Since(c.clock)}
	status, data, err := c.post(body)
	rec.done = time.Since(c.clock)
	if err == nil {
		rec.answers, err = decodeAnswers(status, data, n)
	}
	rec.err = err
	return rec
}

func (c *client) post(body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// decodeAnswers turns one HTTP answer into per-query answers: a
// /v1/query 200 carries one QueryResponse, a /v1/submit 200 carries one
// item per query, and any other status answers every query it carried.
func decodeAnswers(status int, data []byte, n int) ([]answer, error) {
	out := make([]answer, n)
	if status != http.StatusOK {
		for i := range out {
			out[i].status = status
		}
		return out, nil
	}
	if n == 1 {
		out[0].status = status
		return out, json.Unmarshal(data, &out[0].resp)
	}
	var sr httpd.SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, err
	}
	if len(sr.Results) != n {
		return nil, fmt.Errorf("submit answered %d of %d queries", len(sr.Results), n)
	}
	for i, it := range sr.Results {
		out[i].status = it.Status
		if it.Query != nil {
			out[i].resp = *it.Query
		}
	}
	return out, nil
}

// openLoop sends reqs on their schedule, starting at offset start of the
// run clock, from senders goroutines that share one sequence: each takes
// the next request, sleeps until it is due and sends it. A request whose
// senders are all busy goes out late, and its latency still counts from
// its due time.
func (c *client) openLoop(reqs []request, senders int, start time.Duration) []record {
	recs := make([]record, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start + reqs[i].due
				if d := due - time.Since(c.clock); d > 0 {
					time.Sleep(d)
				}
				recs[i] = c.send(reqs[i].body, reqs[i].n)
				recs[i].due, recs[i].queries = due, reqs[i].queries
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop keeps senders requests in flight until dur has passed since
// offset start, cycling through bodies. Each request is due when sent.
func (c *client) closedLoop(bodies [][]byte, n, senders int, start, dur time.Duration) []record {
	var next atomic.Int64
	per := make([][]record, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Since(c.clock) < start+dur {
				i := int(next.Add(1)-1) % len(bodies)
				rec := c.send(bodies[i], n)
				rec.due = rec.sent
				per[g] = append(per[g], rec)
			}
		}(g)
	}
	wg.Wait()
	var out []record
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
