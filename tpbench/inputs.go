package main

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// params fixes every size the benchmark uses. Everything that shapes
// the program's state or the operation sequence lives here, so a run
// is a pure function of (workload, seed, seconds).
type params struct {
	// Fleet: every node is shard.NewLp(P, N, M, Delta) with Shards
	// workers and Queries disjoint query groups.
	N       int64
	P       float64
	M       int64
	Delta   float64
	Shards  int
	Queries int
	Nodes   int

	// Input stream: Zipf(Skew) over [0, N), hash-partitioned by item
	// across the nodes.
	Skew float64

	// FrameItems is the ingest_durable and preload frame size, and
	// FramePool how many distinct frames each node's writer cycles
	// through (a bounded input buffer).
	FrameItems int
	FramePool  int
	// PreloadFrames is how many pool frames each node ingests during
	// set-up.
	PreloadFrames int
	// CkptEvery: an ingest_durable writer checkpoints its node after
	// every CkptEvery frames.
	CkptEvery int
	// SmallItems is the frame size of a query_fresh step and of the
	// epilogue's probe ingest.
	SmallItems int

	// Rounds per second of --seconds and operations per client per
	// round (an ingest_durable round is CkptEvery frames per writer).
	// The run length is a fixed count derived from --seconds, never a
	// timer, so equal arguments walk equal state sequences.
	IngestRoundsPerSec int
	CachedRoundsPerSec int
	CachedPerRound     int
	FreshRoundsPerSec  int
	FreshPerRound      int

	// Setups is how many times set-up runs (setup_s is their median;
	// the last fleet is the one measured). Restores is how many times
	// each node is restored from its store at the end of a run.
	Setups   int
	Restores int

	// LawFleets small fleets answer one k=Queries query each for the
	// law check; LawAlpha is its significance level.
	LawFleets int
	LawAlpha  float64
	// Replays is the repetition count of each per-layer replay.
	Replays int
}

// defaultParams are the sizes the recorded figures come from; see
// README.md for how they were chosen.
func defaultParams() params {
	return params{
		N: 1 << 16, P: 2, M: 1 << 40, Delta: 0.05, Shards: 2, Queries: 4, Nodes: 2,
		Skew:       1.2,
		FrameItems: 32768, FramePool: 16, PreloadFrames: 16, CkptEvery: 64,
		SmallItems:         64,
		IngestRoundsPerSec: 3, CachedRoundsPerSec: 6, CachedPerRound: 20, FreshRoundsPerSec: 3, FreshPerRound: 8,
		Setups: 5, Restores: 10,
		LawFleets: 200, LawAlpha: 1e-6,
		Replays: 5,
	}
}

// tinyParams shrink every size for the smoke tests.
func tinyParams() params {
	p := defaultParams()
	p.N = 1 << 10
	p.FrameItems, p.FramePool, p.PreloadFrames, p.CkptEvery = 512, 4, 2, 3
	p.IngestRoundsPerSec, p.CachedRoundsPerSec, p.CachedPerRound, p.FreshRoundsPerSec, p.FreshPerRound = 2, 2, 5, 2, 4
	p.Setups, p.Restores = 2, 2
	p.LawFleets, p.Replays = 60, 2
	return p
}

// frame is one pre-encoded application/x-tp-items body plus the
// harness's own account of what it carries.
type frame struct {
	body  []byte
	items int
	hist  []itemCount // distinct items with their counts in this frame
}

type itemCount struct {
	item  int64
	count int64
}

// inputs is everything a run sends, generated from the seed before any
// clock starts.
type inputs struct {
	big   [][]frame // [node][i]: ingest_durable and preload frames
	small [][]frame // [node][i]: query_fresh step frames
	probe []frame   // [node]: the epilogue's probe ingest
}

// nodeOf is the harness's item partition across nodes: every
// occurrence of an item goes to one node, which a nonlinear G needs
// for the merged law to be exact. It is independent of the program's
// own shard routing.
func nodeOf(item int64, nodes int) int {
	return int(splitmix(uint64(item)) % uint64(nodes))
}

// zipfStream draws items from Zipf(skew) over [0, n) and deals them to
// per-node queues.
type zipfStream struct {
	z     *rand.Zipf
	nodes int
	queue [][]int64
}

func newZipfStream(seed int64, skew float64, n int64, nodes int) *zipfStream {
	r := rand.New(rand.NewSource(seed))
	return &zipfStream{z: rand.NewZipf(r, skew, 1, uint64(n-1)), nodes: nodes, queue: make([][]int64, nodes)}
}

// next returns the next size items routed to node j.
func (s *zipfStream) next(j, size int) []int64 {
	for len(s.queue[j]) < size {
		it := int64(s.z.Uint64())
		k := nodeOf(it, s.nodes)
		s.queue[k] = append(s.queue[k], it)
	}
	out := append([]int64(nil), s.queue[j][:size]...)
	s.queue[j] = append(s.queue[j][:0], s.queue[j][size:]...)
	return out
}

func makeFrame(items []int64) frame {
	counts := map[int64]int64{}
	for _, it := range items {
		counts[it]++
	}
	f := frame{body: wire.AppendItemsFrame(nil, items), items: len(items)}
	for it, c := range counts {
		f.hist = append(f.hist, itemCount{it, c})
	}
	return f
}

// genInputs builds the run's inputs from the seed. smallFrames is the
// number of distinct small frames per node.
func genInputs(p params, seed int64, smallFrames int) *inputs {
	s := newZipfStream(seed, p.Skew, p.N, p.Nodes)
	in := &inputs{big: make([][]frame, p.Nodes), small: make([][]frame, p.Nodes), probe: make([]frame, p.Nodes)}
	for j := 0; j < p.Nodes; j++ {
		for i := 0; i < p.FramePool; i++ {
			in.big[j] = append(in.big[j], makeFrame(s.next(j, p.FrameItems)))
		}
		for i := 0; i < smallFrames; i++ {
			in.small[j] = append(in.small[j], makeFrame(s.next(j, p.SmallItems)))
		}
		in.probe[j] = makeFrame(s.next(j, p.SmallItems))
	}
	return in
}

// counts is the harness's exact per-item tally of everything the
// fleet acknowledged, indexed by item.
type counts []int64

func (c counts) add(f frame) {
	for _, ic := range f.hist {
		c[ic.item] += ic.count
	}
}

func (c counts) addTimes(f frame, times int64) {
	for _, ic := range f.hist {
		c[ic.item] += ic.count * times
	}
}

func (p params) String() string {
	return fmt.Sprintf("p=%g n=%d m=%d δ=%g shards=%d queries=%d nodes=%d skew=%g frame=%d pool=%d preload=%d ckpt_every=%d small=%d",
		p.P, p.N, p.M, p.Delta, p.Shards, p.Queries, p.Nodes, p.Skew, p.FrameItems, p.FramePool, p.PreloadFrames, p.CkptEvery, p.SmallItems)
}
