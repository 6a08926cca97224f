package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"repro/sample/serve"
)

// Each output check must reject one wrong input and accept the right
// one.

func TestCheckAckRejects(t *testing.T) {
	if err := checkAck(serve.IngestResponse{Accepted: 64, StreamLen: 128}, 64, 128); err != nil {
		t.Fatalf("valid ack rejected: %v", err)
	}
	if checkAck(serve.IngestResponse{Accepted: 63, StreamLen: 128}, 64, 128) == nil {
		t.Error("short ack accepted")
	}
	if checkAck(serve.IngestResponse{Accepted: 64, StreamLen: 127}, 64, 128) == nil {
		t.Error("wrong stream length accepted")
	}
}

func TestCheckAnswerRejects(t *testing.T) {
	c := counts{0, 3, 5, 0}
	shape := fleetShape{nodes: 2, pools: 4}
	good := serve.SampleResponse{
		Outcomes:  []serve.OutcomeJSON{{Item: 1, Freq: 2}, {Item: 2, Freq: 0}},
		Count:     2,
		StreamLen: 8,
		Nodes:     2,
		Pools:     4,
	}
	bottoms, err := checkAnswer(good, 4, c, 8, shape)
	if err != nil || bottoms != 2 {
		t.Fatalf("valid answer: bottoms=%d err=%v", bottoms, err)
	}
	wrong := map[string]func(r *serve.SampleResponse){
		"item outside the support":  func(r *serve.SampleResponse) { r.Outcomes[0].Item = 3 },
		"item outside the universe": func(r *serve.SampleResponse) { r.Outcomes[0].Item = 99 },
		"freq above the true count": func(r *serve.SampleResponse) { r.Outcomes[1].Freq = 5 },
		"negative freq":             func(r *serve.SampleResponse) { r.Outcomes[1].Freq = -1 },
		"count without outcome":     func(r *serve.SampleResponse) { r.Count = 3 },
		"more draws than k":         func(r *serve.SampleResponse) { r.Count = 5 },
		"mass":                      func(r *serve.SampleResponse) { r.StreamLen = 7 },
		"nodes":                     func(r *serve.SampleResponse) { r.Nodes = 1 },
		"pools":                     func(r *serve.SampleResponse) { r.Pools = 2 },
	}
	for name, mutate := range wrong {
		r := good
		r.Outcomes = append([]serve.OutcomeJSON(nil), good.Outcomes...)
		mutate(&r)
		if _, err := checkAnswer(r, 4, c, 8, shape); err == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
}

func TestCheckRestoreRejectsFlippedByte(t *testing.T) {
	live := []byte("TPSN snapshot bytes of the live node")
	restored := append([]byte(nil), live...)
	if err := checkRestore(10, 10, restored, live); err != nil {
		t.Fatalf("identical restore rejected: %v", err)
	}
	restored[7] ^= 0x01
	if checkRestore(10, 10, restored, live) == nil {
		t.Error("restored snapshot with one flipped byte accepted")
	}
	if checkRestore(9, 10, live, live) == nil {
		t.Error("restore short of the acknowledged mass accepted")
	}
}

func TestCheckLawRejectsSkew(t *testing.T) {
	probs := make([]float64, len(lawFreqs))
	var sum float64
	for _, f := range lawFreqs {
		sum += float64(f * f)
	}
	exact := make([]int64, len(lawFreqs))
	for i, f := range lawFreqs {
		probs[i] = float64(f*f) / sum
		exact[i] = int64(math.Round(800 * probs[i]))
	}
	if _, err := checkLaw(exact, probs, 1e-6); err != nil {
		t.Fatalf("histogram at the exact law rejected: %v", err)
	}
	// Shift a tenth of the mass from the heaviest item to the
	// lightest: a skew the check must catch.
	skewed := append([]int64(nil), exact...)
	skewed[0] += 80
	skewed[len(skewed)-1] -= 80
	if _, err := checkLaw(skewed, probs, 1e-6); err == nil {
		t.Error("skewed histogram accepted")
	}
	// The f/Σf (L1) law in place of f²/Σf²: also rejected.
	l1 := make([]int64, len(lawFreqs))
	var fs float64
	for _, f := range lawFreqs {
		fs += float64(f)
	}
	for i, f := range lawFreqs {
		l1[i] = int64(math.Round(800 * float64(f) / fs))
	}
	if _, err := checkLaw(l1, probs, 1e-6); err == nil {
		t.Error("histogram of the L1 law accepted as the L2 law")
	}
}

func TestGammaQ(t *testing.T) {
	// Chi-square survival values: df=7 at 14.067 is 0.05, df=7 at
	// 2.167 is 0.95, df=2 at x is exp(-x/2).
	for _, c := range []struct{ df, x, want float64 }{
		{7, 14.0671, 0.05}, {7, 2.16735, 0.95}, {2, 3, math.Exp(-1.5)}, {2, 50, math.Exp(-25)},
	} {
		got := gammaQ(c.df/2, c.x/2)
		if math.Abs(got-c.want) > 1e-4*c.want {
			t.Errorf("Q(df=%g, x=%g) = %g, want %g", c.df, c.x, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each passes its output checks and reports exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	if !equalSets(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := config{workload: w, seed: 3, seconds: 1, trace: traced, out: t.TempDir(), p: tinyParams()}
			res, m, err := run(context.Background(), c)
			if err != nil || res == nil || !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: res=%+v meta=%+v err=%v", w, traced, res, m, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var got, exp []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, mt := range want {
				exp = append(exp, mt.Name)
				if v, ok := res.Metrics[mt.Name]; ok && v.Unit != mt.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w, mt.Name, v.Unit, mt.Unit)
				}
			}
			if !equalSets(got, exp) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, traced, got, exp)
			}
			for k, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w, traced, k, v.Value)
				}
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
