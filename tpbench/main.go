// Command tpbench is the end-to-end and per-layer benchmark of the
// serving stack: an in-process fleet of shard.NewLp nodes and one
// aggregator on loopback sockets, driven closed-loop by one of three
// workloads (see README.md).
//
//	bash tpbench/run.sh --workload ingest_durable --seed 1 --seconds 10 --trace 0
//	bash tpbench/run.sh --repeat 10 --workload all --seconds 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). A failed check exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	p        params
}

// meta is the run metadata printed before the result line.
type meta struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Params     string  `json:"params"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	Samples    int     `json:"latency_samples"`
	TailPct    float64 `json:"tail_percentile"`
	LawDraws   int64   `json:"law_draws,omitempty"`
	LawP       float64 `json:"law_p,omitempty"`
	SpansFile  string  `json:"spans_file,omitempty"`
	FirstError string  `json:"first_error,omitempty"`
	StealPct   float64 `json:"host_steal_pct"`
	// Latency percentiles in ms, for choosing the tail percentile.
	Pcts map[string]float64 `json:"latency_percentiles_ms,omitempty"`
}

func (m *meta) latency(lat []time.Duration) {
	m.Samples, m.TailPct = len(lat), 100*tailQuantile(len(lat))
	ds := durs(lat)
	m.Pcts = map[string]float64{}
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		m.Pcts[fmt.Sprintf("p%g", 100*q)] = quantile(ds, q) / 1e6
	}
}

func main() {
	var c config
	var repeat int
	flag.StringVar(&c.workload, "workload", "", "ingest_durable, query_cached, query_fresh (or all with --repeat)")
	flag.Uint64Var(&c.seed, "seed", 1, "input and fleet seed")
	flag.IntVar(&c.seconds, "seconds", 10, "run length: operation counts are this many seconds at the nominal rates")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for scratch stores and spans files")
	flag.IntVar(&repeat, "repeat", 0, "run each workload this many times (seeds seed, seed+1, …) and print medians, quartiles and spreads")
	flag.Parse()
	c.trace = *trace == 1
	c.p = defaultParams()
	if c.seconds < 1 {
		fmt.Fprintln(os.Stderr, "tpbench: --seconds must be ≥ 1")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := repeatMode(c, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "tpbench:", err)
			os.Exit(1)
		}
		return
	}
	res, m, err := run(context.Background(), c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpbench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	mj, _ := json.Marshal(m)
	fmt.Printf("# meta %s\n", mj)
	rj, _ := json.Marshal(res)
	fmt.Println(string(rj))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation. A nil result means the run could not
// produce one (bad flags, environment); a result with Correct false
// carries the failed operations.
func run(ctx context.Context, c config) (*result, *meta, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, nil, err
	}
	r, err := newRunner(c.p, c.workload, c.seed, c.seconds, c.out)
	if err != nil {
		return nil, nil, err
	}
	m := &meta{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Params: c.p.String()}
	res := &result{Metrics: map[string]metric{}}
	err = func() error {
		if !c.trace {
			ps, err := r.runPass(ctx, "e2e", c.p.Setups, nil)
			if err != nil {
				return err
			}
			res.Metrics = endToEnd(c.workload, ps)
			m.latency(ps.lat)
			m.StealPct = ps.stealPct
		} else {
			// The untraced pass is the reference for the tracing
			// overhead; the traced pass gives the per-layer figures.
			plain, err := r.runPass(ctx, "plain", 1, nil)
			if err != nil {
				return err
			}
			t := newTracer()
			traced, err := r.runPass(ctx, "traced", 1, t)
			if err != nil {
				return err
			}
			spans := t.snapshot()
			res.Metrics = perLayer(traced, spans, plain, c.workload)
			rep, err := replayLayers(c.p, r.in, traced, c.seed)
			if err != nil {
				return err
			}
			for k, v := range rep {
				res.Metrics[k] = v
			}
			dir := filepath.Join(c.out, "spans")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			m.SpansFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
			if err := writeSpans(m.SpansFile, spans); err != nil {
				return err
			}
			m.latency(traced.lat)
			m.StealPct = traced.stealPct
		}
		if c.workload != wIngest {
			m.LawDraws, m.LawP, err = lawCheck(ctx, c.p, c.seed, r.tl)
			return err
		}
		return nil
	}()
	res.Attempted, res.Failed = r.tl.attempted.Load(), r.tl.failed.Load()
	m.Attempted, m.Failed = res.Attempted, res.Failed
	if r.tl.first != nil {
		m.FirstError = r.tl.first.Error()
	}
	if err != nil && res.Failed == 0 {
		// Not an output check: the run itself broke.
		return nil, m, err
	}
	res.Correct = err == nil && res.Failed == 0
	return res, m, err
}

// cpuModel reads the CPU model name for the run metadata.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
