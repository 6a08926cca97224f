package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/sample/serve"
)

// The output checks. Each compares the program's answer with the
// harness's own account of what it sent (exact per-item counts,
// acknowledged mass) or with properties the method must have. None
// compares against recorded output.

// checkAck: a 200 must acknowledge the whole frame, and the node's
// stream length must equal the harness's count for that node.
func checkAck(ack serve.IngestResponse, frameItems int, nodeMass int64) error {
	if ack.Accepted != frameItems {
		return fmt.Errorf("ack accepted %d items, frame carried %d", ack.Accepted, frameItems)
	}
	if ack.StreamLen != nodeMass {
		return fmt.Errorf("ack streamLen %d, harness counted %d for the node", ack.StreamLen, nodeMass)
	}
	return nil
}

// fleetShape is what every aggregator answer must report.
type fleetShape struct {
	nodes, pools int
}

// checkAnswer validates one aggregator answer to a k-draw query
// against the exact counts c of everything acknowledged so far (mass
// in total): the draw accounting (Count successful draws, k−Count
// bottoms), the mass, the fleet shape, and for every draw that the
// item was sent and 0 ≤ Freq < its true count (Freq counts the item's
// occurrences strictly after the sampled position, so the sampled
// occurrence itself is never included). It returns the number of
// bottom (⊥) draws.
func checkAnswer(resp serve.SampleResponse, k int, c counts, mass int64, shape fleetShape) (int, error) {
	if resp.StreamLen != mass {
		return 0, fmt.Errorf("answer streamLen %d, acknowledged mass %d", resp.StreamLen, mass)
	}
	if resp.Nodes != shape.nodes || resp.Pools != shape.pools {
		return 0, fmt.Errorf("answer spans %d nodes/%d pools, fleet has %d/%d", resp.Nodes, resp.Pools, shape.nodes, shape.pools)
	}
	if resp.Count < 0 || resp.Count > k || len(resp.Outcomes) > k {
		return 0, fmt.Errorf("answer count %d with %d outcomes for k=%d", resp.Count, len(resp.Outcomes), k)
	}
	drawn := 0
	for _, o := range resp.Outcomes {
		if o.Bottom {
			continue
		}
		drawn++
		if o.Item < 0 || o.Item >= int64(len(c)) || c[o.Item] == 0 {
			return 0, fmt.Errorf("drew item %d, which the harness never sent", o.Item)
		}
		if o.Freq < 0 || o.Freq >= c[o.Item] {
			return 0, fmt.Errorf("item %d reported freq %d (occurrences after the sampled one), true count %d", o.Item, o.Freq, c[o.Item])
		}
	}
	if drawn != resp.Count {
		return 0, fmt.Errorf("answer count %d but %d non-⊥ outcomes", resp.Count, drawn)
	}
	return k - resp.Count, nil
}

// checkRestore: a node restored from its checkpoint chain must hold
// the acknowledged mass and snapshot to the live node's exact bytes.
func checkRestore(restoredLen, acked int64, restored, live []byte) error {
	if restoredLen != acked {
		return fmt.Errorf("restored streamLen %d, acknowledged %d", restoredLen, acked)
	}
	if !bytes.Equal(restored, live) {
		return fmt.Errorf("restored snapshot (%d bytes) differs from the live node's (%d bytes)", len(restored), len(live))
	}
	return nil
}

// chiSquare tests observed category counts against exact probabilities
// and returns the statistic and its p-value.
func chiSquare(observed []int64, probs []float64) (stat, pval float64, err error) {
	if len(observed) != len(probs) || len(observed) < 2 {
		return 0, 0, fmt.Errorf("chi-square needs ≥2 matching categories")
	}
	var n int64
	for _, o := range observed {
		n += o
	}
	for i, pr := range probs {
		e := pr * float64(n)
		if e < 5 {
			return 0, 0, fmt.Errorf("category %d expects %.2f draws, below 5", i, e)
		}
		d := float64(observed[i]) - e
		stat += d * d / e
	}
	return stat, gammaQ(float64(len(probs)-1)/2, stat/2), nil
}

// checkLaw rejects a histogram whose chi-square p-value is below alpha.
func checkLaw(observed []int64, probs []float64, alpha float64) (float64, error) {
	stat, pval, err := chiSquare(observed, probs)
	if err != nil {
		return 0, err
	}
	if pval < alpha {
		return pval, fmt.Errorf("draws depart from the exact law: chi2=%.2f df=%d p=%.3g < %.0e (observed %v)", stat, len(probs)-1, pval, alpha, observed)
	}
	return pval, nil
}

// gammaQ is the regularized upper incomplete gamma function Q(a, x),
// the chi-square survival function at 2x with 2a degrees of freedom
// (series below a+1, continued fraction above).
func gammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for n := 1; n < 1000; n++ {
			term *= x / (a + float64(n))
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return 1 - sum*math.Exp(-x+a*math.Log(x)-lg)
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
