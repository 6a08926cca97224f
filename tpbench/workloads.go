package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/sample/serve"
	"repro/sample/snap"
)

// The three workloads. Each is closed-loop: a client sends its next
// request only after the previous answer arrived.
const (
	wIngest = "ingest_durable" // two writers, one per node, with inline checkpoints
	wCached = "query_cached"   // two readers, no ingest: every node answers 304
	wFresh  = "query_fresh"    // one client: ingest one small frame, then query
)

var workloads = []string{wIngest, wCached, wFresh}

// cachedReaders is query_cached's client count: two, so that queries
// meet in the aggregator's singleflight.
const cachedReaders = 2

// tally counts the run's checked operations. Any failed check counts
// its operation as failed; the first failure is kept for the report.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             error
}

// op records one operation's outcome and passes err through.
func (t *tally) op(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		t.mu.Lock()
		if t.first == nil {
			t.first = err
		}
		t.mu.Unlock()
	}
	return err
}

// opCounts shapes the timed phase: rounds rounds, in each of which
// every one of clients closed-loop clients runs perRound operations.
// The counts derive from --seconds at nominal rates, never from a
// timer, so equal arguments walk equal state sequences.
type opCounts struct {
	rounds, perRound, clients int
}

func (o opCounts) total() int { return o.rounds * o.perRound * o.clients }

func countsFor(p params, workload string, seconds int) opCounts {
	switch workload {
	case wIngest:
		return opCounts{rounds: seconds * p.IngestRoundsPerSec, perRound: p.CkptEvery, clients: p.Nodes}
	case wCached:
		return opCounts{rounds: seconds * p.CachedRoundsPerSec, perRound: p.CachedPerRound, clients: cachedReaders}
	}
	return opCounts{rounds: seconds * p.FreshRoundsPerSec, perRound: p.FreshPerRound, clients: 1}
}

// pass is one complete workload execution on a fresh fleet: set-up,
// the timed phase, and the epilogue (probe, final checkpoint,
// crash-restore).
type pass struct {
	setup []float64 // seconds per set-up

	// Timed phase: per-round wall and CPU time, operations and
	// acknowledged items in all and per round, per-operation latency.
	roundWall, roundCPU  []time.Duration
	ops, perRound        int64
	items, itemsPerRound int64
	lat                  []time.Duration
	stealPct             float64 // host CPU time stolen from this machine over the timed phase
	heapPeak             uint64
	gcCycles             uint64
	allocB               uint64

	storeBytes int64 // handed to the stores over the fleet's life, through the final checkpoint
	storeItems int64 // items the fleet acknowledged over the same span
	restore    []float64

	draws, bottoms int64 // aggregator draws returned in the timed phase

	// Trace-only: the run clock bounds of the phases, aggregator
	// counters at their edges, the states around the epilogue probe.
	timedFrom, timedTo, end int64
	ctrFrom, ctrTo, ctrEnd  serve.AggregatorCounters
	probeDraws, probeBot    int64
	s0, s1                  [][]byte
	chains                  [][][]byte // per node: full checkpoint then deltas
}

// runner carries what every pass of one run shares.
type runner struct {
	p        params
	workload string
	seed     uint64
	ops      opCounts
	in       *inputs
	out      string // scratch root for stores
	tl       *tally
}

func newRunner(p params, workload string, seed uint64, seconds int, out string) (*runner, error) {
	if !contains(workloads, workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	r := &runner{p: p, workload: workload, seed: seed, ops: countsFor(p, workload, seconds), out: out, tl: &tally{}}
	small := 0
	if workload == wFresh {
		small = (r.ops.total() + p.Nodes - 1) / p.Nodes
	}
	// Inputs are generated before any clock starts.
	r.in = genInputs(p, int64(seed), small)
	return r, nil
}

// setupFleet boots a fleet and brings it to the measured starting
// state: preload through HTTP ingest, a first checkpoint on every node
// and one cold aggregator query (full fetches and a plan build).
func (r *runner) setupFleet(ctx context.Context, dir string, t *tracer) (*fleet, counts, error) {
	fl, err := bootFleet(r.p, r.seed, dir, t)
	if err != nil {
		return nil, nil, err
	}
	c := make(counts, r.p.N)
	err = func() error {
		for j := 0; j < r.p.Nodes; j++ {
			for i := 0; i < r.p.PreloadFrames; i++ {
				fr := r.in.big[j][i%r.p.FramePool]
				if err := r.tl.op(fl.ingest(ctx, j, fr, fmt.Sprintf("pre%d-%d", j, i))); err != nil {
					return err
				}
				c.add(fr)
			}
			if _, err := fl.nodes[j].Checkpoint(); r.tl.op(err) != nil {
				return fmt.Errorf("set-up checkpoint: %w", err)
			}
		}
		resp, err := fl.query(ctx, r.p.Queries, "cold")
		if err == nil {
			_, err = checkAnswer(resp, r.p.Queries, c, fl.totalAcked(), r.shape())
		}
		return r.tl.op(err)
	}()
	if err != nil {
		fl.close()
		return nil, nil, err
	}
	return fl, c, nil
}

func (r *runner) shape() fleetShape {
	return fleetShape{nodes: r.p.Nodes, pools: r.p.Nodes * r.p.Shards}
}

// runPass executes the workload once. setups > 1 repeats set-up and
// keeps the last fleet; t != nil records spans and the trace-only
// captures.
func (r *runner) runPass(ctx context.Context, name string, setups int, t *tracer) (*pass, error) {
	ps := &pass{}
	var fl *fleet
	var c counts
	base := filepath.Join(r.out, fmt.Sprintf("run-%d-%s", os.Getpid(), name))
	defer os.RemoveAll(base)
	for i := 0; i < setups; i++ {
		if fl != nil {
			if err := fl.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		fl, c, err = r.setupFleet(ctx, filepath.Join(base, fmt.Sprintf("fleet-%d", i)), t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ps.setup = append(ps.setup, time.Since(start).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			fl.close()
		}
	}()

	runtime.GC()
	if t != nil {
		ps.timedFrom, ps.ctrFrom = t.now(), fl.agg.Counters()
	}
	var err error
	m0 := readRuntime()
	heap := startHeapSampler()
	steal0, total0 := hostSteal()
	switch r.workload {
	case wIngest:
		err = r.timedIngest(ctx, fl, ps, t)
	case wCached:
		err = r.timedCached(ctx, fl, c, ps, t)
	case wFresh:
		err = r.timedFresh(ctx, fl, c, ps, t)
	}
	ps.heapPeak = heap.stop()
	steal1, total1 := hostSteal()
	if total1 > total0 {
		ps.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	m1 := readRuntime()
	ps.gcCycles, ps.allocB = m1.gc-m0.gc, m1.alloc-m0.alloc
	if t != nil {
		ps.timedTo, ps.ctrTo = t.now(), fl.agg.Counters()
	}
	if err != nil {
		return nil, err
	}
	if r.workload == wIngest {
		// The timed phase only counted the frames; fold them into the
		// exact tally now (untimed).
		r.addIngested(c)
	}

	if err := r.epilogue(ctx, fl, c, ps, t); err != nil {
		return nil, err
	}
	ps.storeBytes, ps.storeItems = fl.storeBytes(), fl.totalAcked()
	if err := r.restores(fl, ps, t); err != nil {
		return nil, err
	}
	if t != nil {
		ps.end, ps.ctrEnd = t.now(), fl.agg.Counters()
		for j := range fl.stores {
			ch, err := readChain(fl.stores[j].s.(*serve.DirStore))
			if err != nil {
				return nil, err
			}
			ps.chains = append(ps.chains, ch)
		}
	}
	closed = true
	if err := fl.close(); err != nil {
		return nil, err
	}
	return ps, nil
}

// addIngested adds the timed ingest_durable frames to the tally.
func (r *runner) addIngested(c counts) {
	for j := 0; j < r.p.Nodes; j++ {
		times := make([]int64, r.p.FramePool)
		for i := 0; i < r.ops.rounds*r.ops.perRound; i++ {
			times[(r.p.PreloadFrames+i)%r.p.FramePool]++
		}
		for k, n := range times {
			c.addTimes(r.in.big[j][k], n)
		}
	}
}

// timedRounds runs the timed phase round by round and records each
// round's wall and process CPU time, so a transient stall moves one
// round, not the run's median.
func (r *runner) timedRounds(ps *pass, body func(round int) error) error {
	for round := 0; round < r.ops.rounds; round++ {
		cpu0, t0 := cpuTime(), time.Now()
		err := body(round)
		ps.roundWall = append(ps.roundWall, time.Since(t0))
		ps.roundCPU = append(ps.roundCPU, cpuTime()-cpu0)
		if err != nil {
			return err
		}
	}
	ps.ops = int64(r.ops.total())
	ps.perRound = int64(r.ops.perRound * r.ops.clients)
	return nil
}

// eachClient runs f for clients 0..n-1, each on its own goroutine, and
// waits for all of them.
func eachClient(n int, f func(k int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = f(k)
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timedIngest: two writers, one per node, each posting CkptEvery frames
// back to back per round and then checkpointing its node inline.
func (r *runner) timedIngest(ctx context.Context, fl *fleet, ps *pass, t *tracer) error {
	lats := make([][]time.Duration, r.ops.clients)
	err := r.timedRounds(ps, func(round int) error {
		return eachClient(r.ops.clients, func(j int) error {
			return r.writeRound(ctx, fl, j, round, lats, t)
		})
	})
	for j := range lats {
		ps.lat = append(ps.lat, lats[j]...)
	}
	ps.items = ps.ops * int64(r.p.FrameItems)
	ps.itemsPerRound = ps.perRound * int64(r.p.FrameItems)
	return err
}

// writeRound is writer j's share of one ingest_durable round.
func (r *runner) writeRound(ctx context.Context, fl *fleet, j, round int, lats [][]time.Duration, t *tracer) error {
	for i := 0; i < r.ops.perRound; i++ {
		idx := round*r.ops.perRound + i
		fr := r.in.big[j][(r.p.PreloadFrames+idx)%r.p.FramePool]
		rid := fmt.Sprintf("w%d-%d", j, idx)
		var ts int64
		if t != nil {
			ts = t.now()
		}
		t0 := time.Now()
		err := r.tl.op(fl.ingest(ctx, j, fr, rid))
		lats[j] = append(lats[j], time.Since(t0))
		if t != nil {
			t.add(span{Name: "client.ingest", Start: ts, End: t.now(), RID: rid, Node: j, Bytes: int64(len(fr.body))})
		}
		if err != nil {
			return err
		}
	}
	return r.tl.op(t.timeSpan("node.checkpoint", j, func() error {
		_, err := fl.nodes[j].Checkpoint()
		return err
	}))
}

// timedCached: two readers query the aggregator, in lockstep, against
// a fleet that takes no ingest. Each of a round's steps starts both
// readers' queries together and waits for both answers, so the two
// always share the in-flight node fetches (singleflight) the same way:
// unsynchronized readers shared a fraction of fetches that moved with
// host load, which moved throughput by up to 30 % between runs.
func (r *runner) timedCached(ctx context.Context, fl *fleet, c counts, ps *pass, t *tracer) error {
	mass := fl.totalAcked()
	lats := make([][]time.Duration, r.ops.clients)
	bottoms := make([]int64, r.ops.clients)
	err := r.timedRounds(ps, func(round int) error {
		for i := 0; i < r.ops.perRound; i++ {
			err := eachClient(r.ops.clients, func(q int) error {
				rid := fmt.Sprintf("r%d-%d-%d", q, round, i)
				var ts int64
				if t != nil {
					ts = t.now()
				}
				t0 := time.Now()
				resp, err := fl.query(ctx, r.p.Queries, rid)
				lats[q] = append(lats[q], time.Since(t0))
				if t != nil {
					t.add(span{Name: "client.query", Start: ts, End: t.now(), RID: rid, Node: -1})
				}
				var b int
				if err == nil {
					b, err = checkAnswer(resp, r.p.Queries, c, mass, r.shape())
				}
				bottoms[q] += int64(b)
				return r.tl.op(err)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	for q := range lats {
		ps.lat = append(ps.lat, lats[q]...)
		ps.bottoms += bottoms[q]
	}
	ps.draws = ps.ops * int64(r.p.Queries)
	return err
}

// timedFresh: one client alternates nodes; each step ingests one small
// frame and then queries the aggregator, timed from the ingest send to
// the answer whose mass includes it.
func (r *runner) timedFresh(ctx context.Context, fl *fleet, c counts, ps *pass, t *tracer) error {
	err := r.timedRounds(ps, func(round int) error {
		for i := 0; i < r.ops.perRound; i++ {
			s := round*r.ops.perRound + i
			j := s % r.p.Nodes
			fr := r.in.small[j][s/r.p.Nodes]
			var ts int64
			if t != nil {
				ts = t.now()
			}
			t0 := time.Now()
			if err := r.tl.op(fl.ingest(ctx, j, fr, fmt.Sprintf("s%d-i", s))); err != nil {
				return err
			}
			if t != nil {
				t.add(span{Name: "client.ingest", Start: ts, End: t.now(), RID: fmt.Sprintf("s%d-i", s), Node: j, Bytes: int64(len(fr.body))})
				ts = t.now()
			}
			c.add(fr)
			rid := fmt.Sprintf("s%d-q", s)
			resp, err := fl.query(ctx, r.p.Queries, rid)
			ps.lat = append(ps.lat, time.Since(t0))
			if t != nil {
				t.add(span{Name: "client.query", Start: ts, End: t.now(), RID: rid, Node: -1})
			}
			var b int
			if err == nil {
				b, err = checkAnswer(resp, r.p.Queries, c, fl.totalAcked(), r.shape())
			}
			if r.tl.op(err) != nil {
				return err
			}
			ps.bottoms += int64(b)
			ps.items += int64(fr.items)
		}
		return nil
	})
	ps.draws = ps.ops * int64(r.p.Queries)
	return err
}

// epilogue runs the same fixed, untimed sequence after every
// workload: a query that brings the aggregator up to date, one small
// probe frame into every node, a query over the changed fleet (delta
// fetches, plan rebuild), a query over the unchanged fleet (304s,
// cached plan), and a final checkpoint on every node. It gives every
// layer a measurement in every workload and the trace its consecutive
// states.
func (r *runner) epilogue(ctx context.Context, fl *fleet, c counts, ps *pass, t *tracer) error {
	query := func(rid string) error {
		var ts int64
		if t != nil {
			ts = t.now()
		}
		resp, err := fl.query(ctx, r.p.Queries, rid)
		if t != nil {
			t.add(span{Name: "client.query", Start: ts, End: t.now(), RID: rid, Node: -1})
		}
		var b int
		if err == nil {
			b, err = checkAnswer(resp, r.p.Queries, c, fl.totalAcked(), r.shape())
		}
		ps.probeDraws += int64(r.p.Queries)
		ps.probeBot += int64(b)
		return r.tl.op(err)
	}
	capture := func() ([][]byte, error) {
		if t == nil {
			return nil, nil
		}
		var states [][]byte
		for j := range fl.nodes {
			s, err := fl.snapshot(j)
			if err != nil {
				return nil, err
			}
			states = append(states, s)
		}
		return states, nil
	}
	if err := query("probe-sync"); err != nil {
		return err
	}
	var err error
	if ps.s0, err = capture(); err != nil {
		return err
	}
	for j := range fl.nodes {
		fr := r.in.probe[j]
		rid := fmt.Sprintf("probe%d", j)
		var ts int64
		if t != nil {
			ts = t.now()
		}
		if err := r.tl.op(fl.ingest(ctx, j, fr, rid)); err != nil {
			return err
		}
		if t != nil {
			t.add(span{Name: "client.ingest", Start: ts, End: t.now(), RID: rid, Node: j, Bytes: int64(len(fr.body))})
		}
		c.add(fr)
	}
	if ps.s1, err = capture(); err != nil {
		return err
	}
	for _, rid := range []string{"probe-changed", "probe-unchanged"} {
		if err := query(rid); err != nil {
			return err
		}
	}
	for j, n := range fl.nodes {
		if err := r.tl.op(t.timeSpan("node.checkpoint", j, func() error {
			_, err := n.Checkpoint()
			return err
		})); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	return nil
}

// restores crash-restores every node from its store Restores times (the
// live node is not closed first), each after a runtime.GC(), and checks
// the restored state.
func (r *runner) restores(fl *fleet, ps *pass, t *tracer) error {
	for j, n := range fl.nodes {
		live, err := n.Coordinator().Snapshot()
		if err != nil {
			return err
		}
		for k := 0; k < r.p.Restores; k++ {
			var rn *serve.Node
			var skipped []serve.SkippedCheckpoint
			runtime.GC()
			start := time.Now()
			err := t.timeSpan("restore", j, func() error {
				var err error
				rn, skipped, err = serve.Restore(fl.stores[j], serve.NodeConfig{})
				return err
			})
			d := time.Since(start)
			if err == nil && len(skipped) > 0 {
				err = fmt.Errorf("restore skipped %d checkpoints: %v", len(skipped), skipped[0].Err)
			}
			if err == nil {
				var got []byte
				got, err = rn.Coordinator().Snapshot()
				if err == nil {
					err = checkRestore(rn.StreamLen(), fl.acked[j], got, live)
				}
			}
			if rn != nil {
				if cerr := rn.Close(); err == nil {
					err = cerr
				}
			}
			if r.tl.op(err) != nil {
				return fmt.Errorf("restore node %d: %w", j, err)
			}
			ps.restore = append(ps.restore, d.Seconds())
		}
	}
	return nil
}

// runtimeSample is what the timed phase reads from runtime/metrics.
type runtimeSample struct{ gc, alloc uint64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeSample{gc: s[0].Value.Uint64(), alloc: s[1].Value.Uint64()}
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap every few milliseconds and keeps the
// peak.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// hostSteal reads the machine-wide stolen and total CPU ticks from
// /proc/stat: time the hypervisor gave this machine's CPUs to other
// guests, which slows every wall-clock figure. Zero when unavailable.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// readChain returns a store's newest checkpoint chain: the last full
// checkpoint followed by the deltas written after it.
func readChain(ds *serve.DirStore) ([][]byte, error) {
	names, err := ds.Names()
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var chain [][]byte
	for _, nm := range names {
		b, err := ds.Get(nm)
		if err != nil {
			return nil, err
		}
		if !snap.IsDelta(b) {
			chain = chain[:0]
		}
		chain = append(chain, b)
	}
	if len(chain) == 0 {
		return nil, errors.New("store holds no checkpoint")
	}
	return chain, nil
}
