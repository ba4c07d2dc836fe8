package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// scrapeFleet reads every replica's GET /metricz snapshot.
func scrapeFleet(urls []string) ([]obs.Snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	snaps := make([]obs.Snapshot, len(urls))
	for i, u := range urls {
		resp, err := client.Get(u + "/metricz")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snaps[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
	}
	return snaps, nil
}

// counterDelta sums, over replicas, how much every counter whose name has
// the given prefix grew between two scrapes.
func counterDelta(before, after []obs.Snapshot, prefix string) float64 {
	var d int64
	for i := range after {
		for name, v := range after[i].Counters {
			if strings.HasPrefix(name, prefix) {
				d += v - before[i].Counters[name]
			}
		}
	}
	return float64(d)
}

// histMeanDelta is the mean of the observations every histogram whose name
// has the given prefix received between two scrapes, over all replicas.
func histMeanDelta(before, after []obs.Snapshot, prefix string) float64 {
	var n int64
	var sum float64
	for i := range after {
		for name, h := range after[i].Histograms {
			if strings.HasPrefix(name, prefix) {
				n += h.Count - before[i].Histograms[name].Count
				sum += h.Sum - before[i].Histograms[name].Sum
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fleetLayers adds the metrics scraped from the replicas over the timed
// phase: the shared cache tier, fleet singleflight and admission wait.
func fleetLayers(layers map[string]metric, before, after []obs.Snapshot, distinct int) {
	hits := counterDelta(before, after, "peer_fill_hits_total")
	probes := hits + counterDelta(before, after, "peer_fill_misses_total") +
		counterDelta(before, after, "peer_fill_errors_total") +
		counterDelta(before, after, "peer_fill_timeouts_total")
	enumerations := counterDelta(before, after, `serving_requests_total{endpoint="optimize",outcome="ok",cache="miss"}`)
	layers["peercache.fill_hit_ratio"] = metric{fraction(hits, probes), "ratio"}
	layers["peercache.fill_ms"] = metric{histMeanDelta(before, after, "peer_fill_ms"), "ms"}
	layers["fleet.enumerations_per_distinct"] = metric{fraction(enumerations, float64(distinct)), "ratio"}
	layers["registry.claim_waits"] = metric{counterDelta(before, after, "fleet_singleflight_waits_total"), "count"}
	layers["service.admission_wait_ms"] = metric{histMeanDelta(before, after, "admission_wait_ms"), "ms"}
}

func fraction(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
