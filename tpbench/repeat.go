package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatMode runs each selected workload n times, one child process per
// run with seeds c.seed … c.seed+n-1, and prints each metric's median,
// quartiles and spread ((q3−q1)/median, quartiles as Python's
// statistics.quantiles(n=4) gives them).
func repeatMode(c config, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sel := workloads
	if c.workload != "" && c.workload != "all" {
		sel = []string{c.workload}
	}
	trace := "0"
	if c.trace {
		trace = "1"
	}
	summary := map[string]map[string][4]float64{}
	for _, w := range sel {
		vals := map[string][]float64{}
		units := map[string]string{}
		var failShares []string
		for i := 0; i < n; i++ {
			seed := c.seed + uint64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(c.seconds), "--trace", trace, "--out", c.out)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
				units[k] = v.Unit
			}
			// Run metadata worth a spread of its own: host steal and
			// the latency percentiles the tail was chosen from.
			steal := 0.0
			for _, l := range lines {
				var m meta
				if rest, ok := strings.CutPrefix(l, "# meta "); ok && json.Unmarshal([]byte(rest), &m) == nil {
					steal = m.StealPct
					vals["meta.host_steal_pct"] = append(vals["meta.host_steal_pct"], m.StealPct)
					units["meta.host_steal_pct"] = "%"
					for p, v := range m.Pcts {
						vals["meta.latency_"+p] = append(vals["meta.latency_"+p], v)
						units["meta.latency_"+p] = "ms"
					}
				}
			}
			failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Printf("%s seed=%d steal=%.1f%% %s\n", w, seed, steal, lines[len(lines)-1])
		}
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		summary[w] = map[string][4]float64{}
		fmt.Printf("== %s: %d runs, failed/attempted %v\n", w, n, failShares)
		fmt.Printf("%-44s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		for _, k := range names {
			q1, q2, q3 := quartiles(vals[k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			summary[w][k] = [4]float64{q1, q2, q3, spread}
			fmt.Printf("%-44s %12.5g %12.5g %12.5g %7.2f%%  %s\n", k, q1, q2, q3, 100*spread, units[k])
		}
	}
	sj, _ := json.Marshal(summary)
	fmt.Println(string(sj))
	return nil
}
