package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/wire"
	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// Layer replays: after the traced pass, the benchmark calls each
// layer's public functions on inputs and states captured from the run
// and times them from outside. Each replay repeats p.Replays times and
// reports the median.

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// replayLayers runs every replay and returns the per-layer metrics they
// give.
func replayLayers(p params, in *inputs, ps *pass, seed uint64) (map[string]metric, error) {
	out := map[string]metric{}
	reps := p.Replays

	// wire: decode node 0's ingest frames.
	var items int
	for _, fr := range in.big[0] {
		items += fr.items
	}
	buf := make([]int64, 0, p.FrameItems)
	d, err := medianOf(reps, func() error {
		for _, fr := range in.big[0] {
			var err error
			if buf, err = wire.DecodeItemsFrame(buf[:0], fr.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode replay: %w", err)
	}
	out["wire.decode_ns_per_item"] = metric{float64(d) / float64(items), "ns"}

	// shard + core + misragries: route and apply the same items through
	// a fresh coordinator built like the nodes'.
	decoded := make([][]int64, len(in.big[0]))
	for i, fr := range in.big[0] {
		if decoded[i], err = wire.DecodeItemsFrame(nil, fr.body); err != nil {
			return nil, err
		}
	}
	k := 0
	d, err = medianOf(reps, func() error {
		k++
		c := newCoordinator(p, nodeSeed(seed, 0)+uint64(k))
		defer c.Close()
		for _, it := range decoded {
			c.ProcessBatch(it)
		}
		c.Drain()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["shard.ingest_ns_per_item"] = metric{float64(d) / float64(items), "ns"}

	// Restore path: fold node 0's stored chain.
	chain := ps.chains[0]
	var folded []byte
	d, err = medianOf(reps, func() error {
		var err error
		folded, err = shard.ResolveCoordinatorChain(chain[0], chain[1:]...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("chain fold replay: %w", err)
	}
	if !bytes.Equal(folded, ps.s1[0]) {
		return nil, fmt.Errorf("stored chain folds to a state other than the final one")
	}
	out["shard.chain_fold_ms"] = metric{ms(d), "ms"}

	// Snapshot and name of the run's final state.
	s0, s1 := ps.s0[0], ps.s1[0]
	rc, err := shard.RestoreCoordinator(s1)
	if err != nil {
		return nil, err
	}
	var again []byte
	d, err = medianOf(reps, func() error {
		var err error
		again, err = rc.Snapshot()
		return err
	})
	rc.Close()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, s1) {
		return nil, fmt.Errorf("restored coordinator re-snapshots to different bytes")
	}
	out["shard.snapshot_ms"] = metric{ms(d), "ms"}
	d, _ = medianOf(reps, func() error { _ = snap.Name(s1); return nil })
	out["snap.name_ms"] = metric{ms(d), "ms"}
	out["snap.state_bytes"] = metric{float64(len(s1)), "bytes"}

	// Delta path between the states before and after the probe ingest.
	var delta []byte
	d, err = medianOf(reps, func() error {
		var err error
		delta, err = shard.EncodeCoordinatorDelta(s0, s1)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("delta encode replay: %w", err)
	}
	out["shard.delta_encode_ms"] = metric{ms(d), "ms"}
	out["snap.delta_bytes"] = metric{float64(len(delta)), "bytes"}
	var applied []byte
	d, err = medianOf(reps, func() error {
		var err error
		applied, err = shard.ApplyCoordinatorDelta(s0, delta)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("delta apply replay: %w", err)
	}
	if !bytes.Equal(applied, s1) {
		return nil, fmt.Errorf("delta apply does not reproduce the successor state")
	}
	out["shard.delta_apply_ms"] = metric{ms(d), "ms"}
	d, err = medianOf(reps, func() error {
		_, err := shard.SamplerStates(s1)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["shard.states_decode_ms"] = metric{ms(d), "ms"}

	// Merge plan over every node's final state: build plus the first
	// draw (which materializes the trial tables), then draws alone.
	states := func() ([]sample.State, error) {
		var all []sample.State
		for _, s := range ps.s1 {
			st, err := shard.SamplerStates(s)
			if err != nil {
				return nil, err
			}
			all = append(all, st...)
		}
		return all, nil
	}
	var plan *snap.MergePlan
	var builds []float64
	for i := 0; i < reps; i++ {
		st, err := states()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if plan, err = snap.BuildMergePlan(st...); err != nil {
			return nil, err
		}
		plan.SampleK(seed, p.Queries)
		builds = append(builds, float64(time.Since(start)))
	}
	out["snap.plan_build_ms"] = metric{median(builds) / 1e6, "ms"}
	const draws = 1000
	q := seed
	d, _ = medianOf(reps, func() error {
		for i := 0; i < draws; i++ {
			q++
			plan.SampleK(q, p.Queries)
		}
		return nil
	})
	out["snap.plan_draw_us"] = metric{float64(d) / draws / 1e3, "us"}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
