package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// runLine is one benchmark run as collect.sh stores it: the run's last
// output line (the result object) plus the workload it ran.
type runLine struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
	Extra    map[string]metric `json:"extra"`
}

// benchFile is the part of BENCHMARK.json the verdict needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain compares two result sets (JSON lines written by collect.sh)
// with the standard library only: per workload and metric, each side's
// median and quartiles, the pair wins when runs are paired by position,
// and a verdict under BENCHMARK.json's bounds.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound and direction")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: vnlperf compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	var bf benchFile
	raw, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: reading", *bench+":", err)
		return 2
	}
	oldRuns, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	newRuns, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range bf.PerLayer {
		better[m.Name] = m.Better
	}

	regressed := false
	for _, w := range workloads(oldRuns, newRuns) {
		fmt.Printf("== %s (%d old runs, %d new runs)\n", w, len(oldRuns[w]), len(newRuns[w]))
		fmt.Printf("%-36s %12s %12s %8s %8s %9s  %s\n", "metric", "old median", "new median", "old IQR", "change", "new wins", "verdict")
		for _, name := range metricNames(oldRuns[w], newRuns[w]) {
			ov, nv := values(oldRuns[w], name), values(newRuns[w], name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o1, om, o3 := quartiles(ov)
			_, nm, _ := quartiles(nv)
			spread := ratio(o3-o1, om)
			change := ratio(nm-om, om)
			lower := better[name] != "higher"
			wins, pairs := pairWins(ov, nv, lower)
			verdict := "-"
			if bound, ok := bounds[name]; ok {
				verdict = judge(change, spread, bound, lower, wins, pairs, ov, nv)
				if verdict == "REGRESSED" {
					regressed = true
				}
			}
			fmt.Printf("%-36s %12.4g %12.4g %7.1f%% %+7.1f%% %4d/%-4d  %s\n",
				name, om, nm, 100*spread, 100*change, wins, pairs, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// judge gives the verdict for one gated metric: worse beyond the bound is a
// regression; a spread wider than the bound leaves the metric unresolved
// unless every new run beats every old one.
func judge(change, spread, bound float64, lower bool, wins, pairs int, ov, nv []float64) string {
	worse := change
	if !lower {
		worse = -change
	}
	switch {
	case dominates(nv, ov, lower):
		return "improved (every run)"
	case spread > bound:
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	case worse > bound:
		return "REGRESSED"
	case -worse > spread && pairs > 0 && wins*10 >= pairs*9:
		return "improved"
	default:
		return "within bound"
	}
}

// dominates reports whether every value of a beats every value of b.
func dominates(a, b []float64, lower bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lower {
		return sa[len(sa)-1] < sb[0]
	}
	return sa[0] > sb[len(sb)-1]
}

// pairWins counts the pairs (by position) the new run wins; ties count for
// neither side.
func pairWins(ov, nv []float64, lower bool) (wins, pairs int) {
	for i := 0; i < len(ov) && i < len(nv); i++ {
		pairs++
		if (lower && nv[i] < ov[i]) || (!lower && nv[i] > ov[i]) {
			wins++
		}
	}
	return wins, pairs
}

func readRuns(path string) (map[string][]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run %s seed %d failed its checks", path, r.Workload, r.Seed)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

func workloads(a, b map[string][]runLine) []string {
	var out []string
	for w := range a {
		if _, ok := b[w]; ok {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

func metricNames(a, b []runLine) []string {
	seen := map[string]bool{}
	for _, r := range append(append([]runLine(nil), a...), b...) {
		for n := range r.Metrics {
			seen[n] = true
		}
		for n := range r.Extra {
			seen[n] = true
		}
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func values(runs []runLine, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Extra[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
