// Command perfbench is the repository's benchmark: it runs one of
// three workloads through the simulator's public entry points for a
// fixed time, each round in a fresh process, checks the outputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// ladder) as one JSON line. See README.md.
//
//	perfbench -workload paper-eval -seed 1 -seconds 30 -trace 0
//	perfbench steady
package main

import "os"

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "child":
			os.Exit(childMain(args[1:]))
		case "steady":
			os.Exit(steadyMain(args[1:]))
		case "ref":
			os.Exit(refMain())
		}
	}
	os.Exit(benchMain(args, os.Stdout))
}
