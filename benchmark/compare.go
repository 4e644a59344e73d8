package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(raw, &s)
}

// readRecords loads the untraced runs of one results.jsonl, keyed by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func column(runs []record, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareMain checks one or two sets of runs against the bounds in
// BENCHMARK.json, by the rule the benchmark is accepted under: within
// a set, the inter-quartile range of every end-to-end metric except
// setup_s stays within the metric's bound as a share of the median;
// between two sets, no median of B is worse than A's by more than the
// bound; and no run failed an operation. It returns the exit code.
func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.jsonl [B.jsonl]   (run from the directory holding BENCHMARK.json)")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	sets := make([]map[string][]record, len(args))
	for i, path := range args {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	bad := 0
	fmt.Printf("%-18s %-12s %5s %4s %12s %7s", "workload", "metric", "bound", "n", "median A", "iqr A")
	if len(sets) == 2 {
		fmt.Printf(" %12s %7s %8s", "median B", "iqr B", "B worse")
	}
	fmt.Println()
	for _, w := range sp.Workloads {
		for i, set := range sets {
			for _, r := range set[w.Name] {
				if r.Failed != 0 || !r.Correct {
					fmt.Printf("%-18s run with seed %d of set %c failed %d operations\n", w.Name, r.Seed, 'A'+i, r.Failed)
					bad++
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a := column(sets[0][w.Name], m.Name)
			if len(a) == 0 {
				fmt.Printf("%-18s %-12s missing from %s\n", w.Name, m.Name, args[0])
				bad++
				continue
			}
			flag := ""
			check := func(xs []float64) {
				if m.Name != "setup_s" && spread(xs) > m.Bound {
					flag = "  SPREAD"
				}
			}
			check(a)
			fmt.Printf("%-18s %-12s %5.2f %4d %12.5g %7.3f", w.Name, m.Name, m.Bound, len(a), median(a), spread(a))
			if len(sets) == 2 {
				b := column(sets[1][w.Name], m.Name)
				if len(b) == 0 {
					fmt.Printf("  missing from %s\n", args[1])
					bad++
					continue
				}
				check(b)
				worse := (median(b) - median(a)) / median(a)
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					flag += "  WORSE"
				}
				fmt.Printf(" %12.5g %7.3f %+8.3f", median(b), spread(b), worse)
			}
			if flag != "" {
				bad++
			}
			fmt.Println(flag)
		}
	}
	if bad > 0 {
		fmt.Printf("%d violations\n", bad)
		return 1
	}
	return 0
}
