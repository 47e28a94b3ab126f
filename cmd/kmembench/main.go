// Command kmembench regenerates every experiment of McKenney &
// Slingwine's 1993 USENIX paper, and of this repository's extensions, on
// the simulated shared-memory multiprocessor. The experiments are the
// entries of bench.Sweeps (internal/bench/sweeps.go) — name, flags with
// their defaults, what each one backs — and this file only drives that
// list: `kmembench help` prints it, `kmembench <sweep> -h` a sweep's
// flags, `kmembench all` runs every sweep at its defaults. Every sweep
// accepts -json to emit its result as one JSON object instead of
// rendered tables. EXPERIMENTS.md has the measured-vs-paper results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kmem/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch s := bench.Lookup(cmd); {
	case s != nil:
		err = run(os.Stdout, s, flag.ExitOnError, args)
	case cmd == "all":
		err = all(os.Stdout)
	case cmd == "help", cmd == "-h", cmd == "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kmembench: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kmembench %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// run executes one sweep with the given arguments and prints its result
// on w: one JSON document under -json, tables and figures otherwise.
func run(w io.Writer, s *bench.Sweep, onFlagError flag.ErrorHandling, args []string) error {
	rep, err := s.Run(flag.NewFlagSet(s.Name, onFlagError), args)
	if err != nil {
		return err
	}
	return rep.Write(w)
}

// all runs every sweep at its flag defaults under a heading.
func all(w io.Writer) error {
	for i, s := range bench.Sweeps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s %s\n", s.Title, strings.Repeat("=", 65-len(s.Title)))
		if err := run(w, s, flag.ExitOnError, nil); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "kmembench regenerates the paper's evaluation:")
	for _, s := range bench.Sweeps {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", s.Name, s.Help)
	}
	fmt.Fprintf(os.Stderr, "  %-10s everything above with default settings\n", "all")
	fmt.Fprintln(os.Stderr, "`kmembench <sweep> -h` lists a sweep's flags; every sweep takes -json.")
}
