package main

import (
	"context"
	"fmt"
)

// lawFreqs is the stream every law-check fleet ingests: item i occurs
// lawFreqs[i] times. Under p = 2 the exact law is f_i² / Σ f².
var lawFreqs = []int64{3, 4, 5, 6, 7, 8, 9, 10}

// lawParams sizes the small fleets: the benchmark's kind and topology
// (p, δ, shards, queries, nodes) over a universe just wide enough for
// the stream.
func lawParams(p params) params {
	p.N, p.M = 64, 1<<10
	return p
}

// lawFrames splits the law stream across nodes by the harness's item
// partition, interleaving items so every node sees a mixed order.
func lawFrames(p params) ([]frame, counts) {
	c := make(counts, p.N)
	per := make([][]int64, p.Nodes)
	left := append([]int64(nil), lawFreqs...)
	for more := true; more; {
		more = false
		for i := range left {
			if left[i] > 0 {
				left[i]--
				per[nodeOf(int64(i), p.Nodes)] = append(per[nodeOf(int64(i), p.Nodes)], int64(i))
				more = true
			}
		}
	}
	frames := make([]frame, p.Nodes)
	for j := range per {
		frames[j] = makeFrame(per[j])
		c.add(frames[j])
	}
	return frames, c
}

// lawCheck draws from LawFleets independent small fleets, each with
// its own seeds answering one k = Queries query, and tests the
// non-⊥ draws against the exact f²/Σf² law with a chi-square test at
// LawAlpha. Repeated queries on one fleet would replay frozen coins,
// so each fleet answers once. Every answer also passes checkAnswer.
func lawCheck(ctx context.Context, p params, seed uint64, tl *tally) (draws int64, pval float64, err error) {
	lp := lawParams(p)
	frames, c := lawFrames(lp)
	var mass int64
	for _, fr := range frames {
		mass += int64(fr.items)
	}
	hist := make([]int64, len(lawFreqs))
	shape := fleetShape{nodes: lp.Nodes, pools: lp.Nodes * lp.Shards}
	for r := 0; r < lp.LawFleets; r++ {
		fseed := splitmix(seed<<20 + uint64(r) + 0x1a3)
		fl, err := bootFleet(lp, fseed, "", nil)
		if err != nil {
			return 0, 0, err
		}
		ferr := func() error {
			for j, fr := range frames {
				if err := tl.op(fl.ingest(ctx, j, fr, fmt.Sprintf("law%d-%d", r, j))); err != nil {
					return err
				}
			}
			resp, err := fl.query(ctx, lp.Queries, fmt.Sprintf("law%d-q", r))
			if err == nil {
				_, err = checkAnswer(resp, lp.Queries, c, mass, shape)
			}
			if err := tl.op(err); err != nil {
				return err
			}
			for _, o := range resp.Outcomes {
				if !o.Bottom {
					hist[o.Item]++
					draws++
				}
			}
			return nil
		}()
		if cerr := fl.close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return draws, 0, fmt.Errorf("law fleet %d: %w", r, ferr)
		}
	}
	var sum float64
	for _, f := range lawFreqs {
		sum += float64(f * f)
	}
	probs := make([]float64, len(lawFreqs))
	for i, f := range lawFreqs {
		probs[i] = float64(f*f) / sum
	}
	pval, err = checkLaw(hist, probs, p.LawAlpha)
	return draws, pval, tl.op(err)
}

// splitmix is a SplitMix64 finalizer for deriving distinct seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
