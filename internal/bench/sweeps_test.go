package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"kmem/internal/machine"
)

// TestSweepsAreTheIndex: the registry is complete as an index — every
// entry says what it is and what it backs and can be smoke-run, the
// committed BENCH_*.json files and the entries name each other one to
// one — and the prose indexes (README's command list, DESIGN.md §4,
// EXPERIMENTS.md) mention every sweep, so an experiment cannot be added
// or dropped in one place only.
func TestSweepsAreTheIndex(t *testing.T) {
	root := filepath.Join("..", "..")
	namedBy := map[string]string{} // baseline file -> sweep
	seen := map[string]bool{}
	for _, s := range Sweeps {
		if s.Name == "" || s.Help == "" || s.Title == "" || s.Backs == "" || s.Flags == nil {
			t.Errorf("sweep %q: name, help, title, backs and flags are all required", s.Name)
		}
		if len(s.Smoke) == 0 {
			t.Errorf("sweep %s has no smoke arguments", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("sweep %s is declared twice", s.Name)
		}
		seen[s.Name] = true
		for _, b := range s.Baselines {
			if other, dup := namedBy[b.File]; dup {
				t.Errorf("%s is named by both %s and %s", b.File, other, s.Name)
			}
			namedBy[b.File] = s.Name
			if _, err := os.Stat(filepath.Join(root, b.File)); err != nil {
				t.Errorf("sweep %s names a baseline that is not committed: %v", s.Name, err)
			}
			if !strings.Contains(s.Backs, b.File) {
				t.Errorf("sweep %s: Backs does not mention its baseline %s", s.Name, b.File)
			}
		}
	}
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no BENCH_*.json at the repository root (%v)", err)
	}
	for _, path := range committed {
		if file := filepath.Base(path); namedBy[file] == "" {
			t.Errorf("%s is committed but no sweep names it with the arguments that reproduce it", file)
		}
	}

	read := func(file string) string {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	between := func(file, text, start, end string) string {
		from := strings.Index(text, start)
		to := strings.Index(text[from+1:], end)
		if from < 0 || to < 0 {
			t.Fatalf("%s has no %q followed by %q", file, start, end)
		}
		return text[from : from+1+to]
	}
	readme, design := read("README.md"), read("DESIGN.md")
	section4 := between("DESIGN.md", design, "\n## 4. ", "\n## 5. ")
	for what, text := range map[string]string{
		"README.md":      readme,
		"DESIGN.md §4":   section4,
		"EXPERIMENTS.md": read("EXPERIMENTS.md"),
	} {
		for _, s := range Sweeps {
			if !regexp.MustCompile(`kmembench ` + s.Name + `\b`).MatchString(text) {
				t.Errorf("%s never says `kmembench %s`", what, s.Name)
			}
		}
	}

	// And back: README's command block and §4 run no `kmembench <name>`
	// that is not an entry (or the driver's `all` and `help`).
	// EXPERIMENTS.md keeps retired sweeps as history, so it is not read.
	command := regexp.MustCompile(`kmembench (\w+)`)
	for what, text := range map[string]string{
		"README.md's command block": between("README.md", readme, "```sh\n", "\n```"),
		"DESIGN.md §4":              section4,
	} {
		for _, m := range command.FindAllStringSubmatch(text, -1) {
			if name := m[1]; name != "all" && name != "help" && Lookup(name) == nil {
				t.Errorf("%s says `kmembench %s`, which is not a bench.Sweeps entry", what, name)
			}
		}
	}
}

// TestSweepsRefuseDegenerateCounts: for every numeric flag of every
// sweep, zero and a negative value are refused with an error naming the
// flag, before the sweep starts (a zero window used to surface as "json:
// unsupported value: NaN"); the flags a sweep declares free-valued —
// seeds, "0 = default" overrides — take zero.
func TestSweepsRefuseDegenerateCounts(t *testing.T) {
	for _, s := range Sweeps {
		started := false
		guarded := *s
		guarded.Flags = func(fs *flag.FlagSet) runner {
			run := s.Flags(fs)
			return func() (*Report, error) { started = true; return run() }
		}
		try := func(args ...string) error {
			fs := flag.NewFlagSet(s.Name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			_, err := guarded.Run(fs, args)
			return err
		}

		var numeric []string
		probe := flag.NewFlagSet(s.Name, flag.ContinueOnError)
		s.Flags(probe)
		probe.VisitAll(func(f *flag.Flag) {
			switch v := f.Value.(type) {
			case *list[int], *list[int64], *list[uint64]:
				numeric = append(numeric, f.Name)
			case flag.Getter:
				switch v.Get().(type) {
				case int, int64, uint64, float64:
					numeric = append(numeric, f.Name)
				}
			}
		})
		for _, name := range numeric {
			if slices.Contains(s.AnyValue, name) {
				if err := try(slices.Concat(s.Smoke[0], []string{"-" + name, "0"})...); err != nil {
					t.Errorf("%s -%s 0: free-valued flag refused: %v", s.Name, name, err)
				}
				continue
			}
			for _, v := range []string{"0", "-1"} {
				started = false
				err := try("-"+name, v, "-json")
				if err == nil || !strings.Contains(err.Error(), "-"+name) || started {
					t.Errorf("%s -%s %s: got %v (sweep started: %v), want an error naming the flag before it starts",
						s.Name, name, v, err, started)
				}
			}
		}
	}
}

// TestSweepsRefuseImpossibleMachine: a count that is positive but more
// than the machine can have is the command line's error too — every sweep
// with a -cpus flag answers -cpus 100 with an error naming the range
// (machine.New's panic used to reach the user as a goroutine trace).
func TestSweepsRefuseImpossibleMachine(t *testing.T) {
	for _, s := range Sweeps {
		probe := flag.NewFlagSet(s.Name, flag.ContinueOnError)
		s.Flags(probe)
		if probe.Lookup("cpus") == nil {
			continue
		}
		fs := flag.NewFlagSet(s.Name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := s.Run(fs, slices.Concat(s.Smoke[0], []string{"-cpus", "100"}))
		if want := fmt.Sprintf("out of range [1,%d]", machine.MaxCPUs); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s -cpus 100: got %v, want an error saying %q", s.Name, err, want)
		}
	}
}
