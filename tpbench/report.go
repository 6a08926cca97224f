package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which the repeat mode's spreads follow.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailQuantile is the reported tail percentile: p75, the highest fixed
// percentile that repeated within its bound across ten-run sets on a
// 2-vCPU guest whose host steals a varying share of CPU time (README.md
// has the figures). Every workload has at least 480 samples, so over a
// hundred lie beyond it; a run too short for ten falls back to the
// median.
func tailQuantile(n int) float64 {
	if float64(n)*0.25 >= 10 {
		return 0.75
	}
	return 0.5
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// endToEnd turns an untraced pass into the end-to-end metrics.
// Throughput and CPU per operation are medians over the timed phase's
// rounds; latencies are over every operation.
func endToEnd(workload string, ps *pass) map[string]metric {
	lat := durs(ps.lat)
	work := ps.perRound
	if workload == wIngest {
		work = ps.itemsPerRound
	}
	tput := make([]float64, len(ps.roundWall))
	cpu := make([]float64, len(ps.roundCPU))
	for i := range ps.roundWall {
		tput[i] = float64(work) / ps.roundWall[i].Seconds()
		cpu[i] = ms(ps.roundCPU[i]) / float64(ps.perRound)
	}
	return map[string]metric{
		"setup_s":               {median(ps.setup), "s"},
		"throughput_per_s":      {median(tput), "1/s"},
		"latency_p50_ms":        {median(lat) / 1e6, "ms"},
		"latency_tail_ms":       {quantile(lat, tailQuantile(len(lat))) / 1e6, "ms"},
		"cpu_ms_per_op":         {median(cpu), "ms"},
		"heap_peak_mb":          {float64(ps.heapPeak) / (1 << 20), "MB"},
		"store_bytes_per_kitem": {float64(ps.storeBytes) / (float64(ps.storeItems) / 1000), "B/kitem"},
		"restore_s":             {median(ps.restore), "s"},
	}
}

// perLayer turns the traced pass's spans and counters into per-layer
// metrics. A layer's spans come from the timed phase; a layer the
// workload's timed phase never enters is measured on the epilogue's
// fixed probe sequence instead.
func perLayer(ps *pass, spans []span, untraced *pass, workload string) map[string]metric {
	pick := func(name string) []span {
		if s := spansIn(spans, name, ps.timedFrom, ps.timedTo); len(s) > 0 {
			return s
		}
		return spansIn(spans, name, ps.timedTo, ps.end+1)
	}
	medMS := func(ss []span) float64 {
		ds := make([]float64, len(ss))
		for i, s := range ss {
			ds[i] = float64(s.dur())
		}
		if len(ds) == 0 {
			return 0
		}
		return median(ds) / 1e6
	}
	out := map[string]metric{}

	ingest := pick("node.ingest")
	out["serve.node.ingest_ms"] = metric{medMS(ingest), "ms"}
	client := map[string]span{}
	for _, s := range spans {
		if s.Name == "client.ingest" {
			client[s.RID] = s
		}
	}
	var over []float64
	for _, s := range ingest {
		if c, ok := client[s.RID]; ok {
			over = append(over, float64(c.dur()-s.dur()))
		}
	}
	out["serve.http.ingest_overhead_ms"] = metric{median(over) / 1e6, "ms"}
	out["serve.node.checkpoint_ms"] = metric{medMS(pick("node.checkpoint")), "ms"}
	puts := pick("store.put")
	out["serve.store.put_ms"] = metric{medMS(puts), "ms"}
	var full, delta int
	for _, s := range puts {
		if s.Kind == "delta" {
			delta++
		} else {
			full++
		}
	}
	out["serve.store.full_puts"] = metric{float64(full), "count"}
	out["serve.store.delta_puts"] = metric{float64(delta), "count"}
	out["serve.store.get_ms"] = metric{medMS(pick("store.get")), "ms"}
	out["serve.node.snapshot_304_ms"] = metric{medMS(pick("node.snapshot_304")), "ms"}
	out["serve.node.snapshot_delta_ms"] = metric{medMS(pick("node.snapshot_delta")), "ms"}

	// Aggregator: query, self, fetch spans and the per-query ratios,
	// over the same window as the queries.
	queries := spansIn(spans, "agg.query", ps.timedFrom, ps.timedTo)
	from, to := ps.timedFrom, ps.timedTo
	c0, c1 := ps.ctrFrom, ps.ctrTo
	draws, bottoms := ps.draws, ps.bottoms
	if len(queries) == 0 {
		from, to = ps.timedTo, ps.end+1
		queries = spansIn(spans, "agg.query", from, to)
		c0, c1 = ps.ctrTo, ps.ctrEnd
		draws, bottoms = ps.probeDraws, ps.probeBot
	}
	fetches := spansIn(spans, "agg.fetch", from, to)
	byRID := map[string][]span{}
	var fetchBytes int64
	var notMod int
	for _, f := range fetches {
		byRID[f.RID] = append(byRID[f.RID], f)
		fetchBytes += f.Bytes
		if f.Kind == "304" {
			notMod++
		}
	}
	var self []float64
	for _, q := range queries {
		self = append(self, float64(selfTime(q, byRID[q.RID])))
	}
	nq := float64(len(queries))
	out["serve.aggregator.query_ms"] = metric{medMS(queries), "ms"}
	out["serve.aggregator.self_ms"] = metric{median(self) / 1e6, "ms"}
	out["serve.aggregator.fetch_ms"] = metric{medMS(fetches), "ms"}
	out["serve.aggregator.fetch_bytes_per_query"] = metric{float64(fetchBytes) / nq, "bytes"}
	out["serve.aggregator.not_modified_per_fetch"] = metric{float64(notMod) / float64(len(fetches)), "ratio"}
	out["serve.aggregator.fetches_per_query"] = metric{float64(len(fetches)) / nq, "ratio"}
	out["serve.aggregator.plan_rebuilds_per_query"] = metric{
		float64(c1.PlanRebuilds-c0.PlanRebuilds) / float64(c1.PlanRebuilds-c0.PlanRebuilds+c1.PlanHits-c0.PlanHits), "ratio"}
	out["core.bottom_per_draw"] = metric{float64(bottoms) / float64(draws), "ratio"}

	out["runtime.gc_cycles_per_op"] = metric{float64(ps.gcCycles) / float64(ps.ops), "count"}
	out["runtime.alloc_bytes_per_op"] = metric{float64(ps.allocB) / float64(ps.ops), "bytes"}

	// Tracing overhead: the traced pass's CPU per operation against the
	// untraced pass's, same inputs, same process. CPU time rather than
	// wall time, because host steal moves wall time by more than the
	// tracing costs.
	cu := endToEnd(workload, untraced)["cpu_ms_per_op"].Value
	ct := endToEnd(workload, ps)["cpu_ms_per_op"].Value
	out["trace.overhead_pct"] = metric{(ct/cu - 1) * 100, "%"}
	return out
}
