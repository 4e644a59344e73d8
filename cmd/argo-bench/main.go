// Command argo-bench regenerates the tables and figures of the ARGO paper
// on the platform simulator (plus the real-training convergence study).
//
// Usage:
//
//	argo-bench -list
//	argo-bench -exp fig1
//	argo-bench -exp all
//
// It measures nothing about this machine: wall-clock lives in benchmark/
// (BENCHMARK.json) and the structural gates are Go tests in the packages
// that own the properties (README, Benchmarks section).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"argo/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list), or \"all\"")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		if err := experiments.Run(name, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "argo-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s took %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
