package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// sample is the client's record of one request.
type sample struct {
	latency time.Duration // from send to the full response
	end     time.Duration // completion, from the start of the phase
	item    int           // index of the item sent
	cache   string        // X-Cache disposition
	failure string        // "" when the request succeeded
}

// client is one load-generator connection: a transport that keeps exactly
// one connection open to its replica.
type client struct {
	http *http.Client
}

func newClient() *client {
	return &client{http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// optimizeReply is the part of a /optimize response the benchmark checks.
type optimizeReply struct {
	Assignments []string                 `json:"assignments"`
	Conversions []service.ConversionJSON `json:"conversions"`
	Degraded    bool                     `json:"degraded"`
}

// send POSTs one item to a replica and checks the answer against the
// item's reference. failure names what went wrong, "" on success.
func (c *client) send(base string, it *item) (cache, failure string) {
	url := base + "/optimize"
	if it.lambda != 0 {
		url += "?risk_lambda=" + strconv.FormatFloat(it.lambda, 'g', -1, 64)
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(it.body))
	if err != nil {
		return "", "transport"
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", "transport"
	}
	cache = resp.Header.Get("X-Cache")
	if resp.StatusCode != http.StatusOK {
		return cache, "status-" + strconv.Itoa(resp.StatusCode)
	}
	return cache, checkReply(body, &it.ref)
}

// checkReply compares a 200 response body with the reference answer.
func checkReply(body []byte, ref *reference) string {
	var got optimizeReply
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable"
	}
	if got.Degraded {
		return "degraded"
	}
	if !ref.matches(got.Assignments, got.Conversions) {
		return "mismatch"
	}
	return ""
}

// closedLoop runs conns clients that each send the sequence's next request
// as soon as their previous one completes, from start for d or until a
// non-cycling sequence is used up. Client w keeps one connection, to replica
// w mod len(urls).
func closedLoop(urls []string, items []item, seq []int, cycle bool, conns int, start time.Time, d time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, conns)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(seq) && !cycle {
					return
				}
				t0 := time.Now()
				i := seq[k%len(seq)]
				cache, failure := c.send(urls[w%len(urls)], &items[i])
				per[w] = append(per[w], sample{latency: time.Since(t0), end: time.Since(start), item: i, cache: cache, failure: failure})
			}
		}(w)
	}
	wg.Wait()
	return flatten(per), time.Since(start)
}

func flatten(per [][]sample) []sample {
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// sendAll sends items once each, round-robin over the replicas, from one
// connection per replica: the untimed warm-up.
func sendAll(urls []string, items []item, idx []int) error {
	clients := make([]*client, len(urls))
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	for k, i := range idx {
		if _, failure := clients[k%len(urls)].send(urls[k%len(urls)], &items[i]); failure != "" {
			return fmt.Errorf("warm-up request %d failed: %s", k, failure)
		}
	}
	return nil
}
