// Command altbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index E1-E14).
//
// Usage:
//
//	altbench             # run everything
//	altbench -run e3,e4  # run a subset
//	altbench -list       # list experiments
//	altbench selbench    # selection path under contention → BENCH_sel.json
//	altbench obsbench    # flight recorder off vs on → BENCH_obs.json
//	altbench adaptbench  # static vs adaptive speculation → BENCH_adapt.json
//	altbench distbench   # local vs consensus commit over TCP → BENCH_dist.json
//
// All experiments run in the deterministic simulator; output is
// reproducible across machines.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"altrun/internal/experiments"

	// distbench crosses the TCP fabric's framing; the central
	// registration point supplies every protocol message's wire codec.
	_ "altrun/internal/transport/codec"
)

type experiment struct {
	name string
	desc string
	run  func() (string, error)
}

func registry() []experiment {
	return []experiment{
		{"e1", "§4.3 analytic PI table", func() (string, error) {
			return experiments.E1().Format(), nil
		}},
		{"e2", "§4.3 PI table measured in the simulator", wrap(experiments.E2)},
		{"e3", "§4.4 COW fork latency (3B2, HP9000)", wrap(experiments.E3)},
		{"e4", "§4.4 page-copy cost vs fraction written", wrap(experiments.E4)},
		{"e5", "§4.4 remote fork (checkpoint/ship/restore)", wrap(experiments.E5)},
		{"e6", "Fig. 1+2 block execution transcript", wrap(experiments.E6)},
		{"e7", "§5.1 recovery blocks: sequential vs concurrent", wrap(experiments.E7)},
		{"e8", "§5.2 OR-parallel Prolog", wrap(experiments.E8)},
		{"e9", "§3.2.1 sync vs async sibling elimination", wrap(experiments.E9)},
		{"e10", "§3.2.1 majority-consensus commit", wrap(experiments.E10)},
		{"e11", "§4.1 wasted work vs dispersion", wrap(experiments.E11)},
		{"e12", "§4.2 schemes A/B/C", wrap(experiments.E12)},
		{"e13", "§3.4.2 multiple-worlds message layer", wrap(experiments.E13)},
		{"e14", "§7 overhead crossover", wrap(experiments.E14)},
		{"e15", "ablation: COW vs full-copy spawn", wrap(experiments.E15)},
		{"e16", "ablation: guard placement (pre-spawn / child / sync-point)", wrap(experiments.E16)},
		{"e17", "§4.2 real vs virtual concurrency", wrap(experiments.E17)},
	}
}

// wrap adapts an experiment constructor returning a formattable result.
func wrap[T interface{ Format() string }](f func() (T, error)) func() (string, error) {
	return func() (string, error) {
		res, err := f()
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}
}

func main() {
	subcommands := map[string]func([]string) error{
		"selbench":   runSelbench,
		"obsbench":   runObsbench,
		"adaptbench": runAdaptbench,
		"distbench":  runDistbench,
	}
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "altbench %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	run := flag.String("run", "all", "comma-separated experiment ids (e1..e14) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()
	if err := realMain(*run, *list); err != nil {
		fmt.Fprintln(os.Stderr, "altbench:", err)
		os.Exit(1)
	}
}

func realMain(run string, list bool) error {
	exps := registry()
	if list {
		for _, e := range exps {
			fmt.Printf("%-5s %s\n", e.name, e.desc)
		}
		return nil
	}
	selected := make(map[string]bool)
	if run != "all" {
		for _, name := range strings.Split(run, ",") {
			selected[strings.TrimSpace(strings.ToLower(name))] = true
		}
		known := make(map[string]bool, len(exps))
		for _, e := range exps {
			known[e.name] = true
		}
		var unknown []string
		for name := range selected {
			if !known[name] {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return fmt.Errorf("unknown experiments: %s", strings.Join(unknown, ", "))
		}
	}
	for _, e := range exps {
		if run != "all" && !selected[e.name] {
			continue
		}
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(out)
	}
	return nil
}
