package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"kmem/internal/machine"
)

// Sweep is one kmembench experiment, declared once: Sweeps is the
// repository's experiment index. cmd/kmembench dispatches, prints its
// usage and runs `all` from it; its smoke test and TestBaselinesReproduce
// range over it; TestSweepsAreTheIndex holds README, DESIGN.md §4 and
// EXPERIMENTS.md to it.
type Sweep struct {
	Name  string // the subcommand, and with "kmembench/" in front the -json schema
	Help  string // one usage line
	Title string // heading under `kmembench all`
	// Backs says why the sweep exists: the paper figure or section it
	// regenerates, the EXPERIMENTS.md entry it measures, or the gate that
	// runs it.
	Backs string
	// Baselines are the committed BENCH_*.json files this sweep produced,
	// each with the arguments that reproduce it.
	Baselines []Baseline
	// Smoke holds argument sets small enough for a unit test.
	Smoke [][]string
	// AnyValue names the numeric flags that are not counts, sizes or
	// windows (seeds, "0 = the default" overrides); Run requires every
	// other numeric flag to be positive.
	AnyValue []string
	// Flags declares the sweep's flags on fs — their defaults live here
	// and nowhere else — and returns the function that runs the sweep
	// with whatever fs parsed into them.
	Flags func(fs *flag.FlagSet) runner
}

// runner runs a sweep with the flag values its Flags call bound.
type runner = func() (*Report, error)

// Baseline names one committed figure: File, at the repository root, is
// the -json output of the sweep run with Args (nil: the flag defaults).
type Baseline struct {
	File string
	Args []string
}

// Report is one finished sweep.
type Report struct {
	Schema string                  // the sweep's name in the -json envelope; Run fills it in
	Doc    any                     // what -json emits
	Render func(w io.Writer) error // the tables, figures and prose
	json   bool
}

// Write prints the report the way the command line asked for it: the
// Emit envelope under -json, rendered otherwise.
func (r *Report) Write(w io.Writer) error {
	if r.json {
		return Emit(w, r.Schema, r.Doc)
	}
	return r.Render(w)
}

// Lookup returns the sweep called name, or nil.
func Lookup(name string) *Sweep {
	for _, s := range Sweeps {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Run executes the sweep as `kmembench <name> args...` does: it declares
// the sweep's flags and -json on fs, parses args, refuses a numeric flag
// that is not positive — before any machine is built, so a zero window
// or count is an error naming the flag rather than a NaN in the output —
// and runs; a machine shape no machine.New accepts is likewise an error.
func (s *Sweep) Run(fs *flag.FlagSet, args []string) (rep *Report, err error) {
	run := s.Flags(fs)
	asJSON := fs.Bool("json", false, "emit the result as one JSON object instead of rendered tables")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var bad error
	fs.VisitAll(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok && bad == nil && !slices.Contains(s.AnyValue, f.Name) && !positive(g.Get()) {
			bad = fmt.Errorf("-%s must be positive, got %s", f.Name, f.Value)
		}
	})
	if bad != nil {
		return nil, bad
	}
	// Flags that passed may still describe a machine that cannot be
	// built (-cpus 100, more nodes than CPUs). The *machine.ConfigError
	// machine.New panics with is the command line's fault and becomes
	// the error; any other panic is a bug and keeps unwinding.
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *machine.ConfigError:
			rep, err = nil, r
		default:
			panic(r)
		}
	}()
	if rep, err = run(); err != nil {
		return nil, err
	}
	rep.Schema = s.Name
	rep.json = *asJSON
	return rep, nil
}

// positive reports whether a flag value is usable as a count, size or
// window; values that are not scalar numbers pass (list flags refuse
// non-positive elements when set).
func positive(v any) bool {
	switch v := v.(type) {
	case int:
		return v > 0
	case int64:
		return v > 0
	case uint64:
		return v > 0
	case float64:
		return v > 0
	}
	return true
}

// list is a flag holding comma-separated positive integers.
type list[T int | int64 | uint64] []T

func listFlag[T int | int64 | uint64](fs *flag.FlagSet, name string, usage string, def ...T) *list[T] {
	l := list[T](def)
	fs.Var(&l, name, usage)
	return &l
}

func (l *list[T]) String() string {
	parts := make([]string, len(*l))
	for i, v := range *l {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func (l *list[T]) Set(s string) error {
	*l = nil
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || n <= 0 {
			return fmt.Errorf("%q is not a positive integer", part)
		}
		*l = append(*l, T(n))
	}
	return nil
}

// printer is a Table or a Figure.
type printer interface{ Fprint(io.Writer) }

// report is the common shape of a sweep's output: doc under -json;
// rendered, the parts with a blank line between them and then the note.
func report(doc any, note string, parts ...printer) *Report {
	return &Report{Doc: doc, Render: func(w io.Writer) error {
		for i, p := range parts {
			if i > 0 {
				fmt.Fprintln(w)
			}
			p.Fprint(w)
		}
		fmt.Fprint(w, note)
		return nil
	}}
}

// tabled is report for the commonest sweep: one result with one Table,
// or the error that prevented it.
func tabled[R interface{ Table() *Table }](res R, err error, note string) (*Report, error) {
	if err != nil {
		return nil, err
	}
	return report(res, note, res.Table()), nil
}

// writeCSV saves a figure's series data to path and says so on w.
func writeCSV(w io.Writer, path string, f *Figure) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, f.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintf(w, "(series written to %s)\n", path)
	return nil
}

// writeFile creates path, lets write fill it and closes it; the first
// error of the three is the result.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
