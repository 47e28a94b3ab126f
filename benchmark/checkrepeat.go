package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// exactMetrics must repeat bit for bit on the same seed: the simulator is
// deterministic, and so is everything computed from its clock.
var exactMetrics = map[string]bool{
	"v_ops_per_s": true, "v_alloc_p50_cycles": true, "v_alloc_p99_cycles": true,
	"v_alloc_p999_cycles": true, "v_free_p99_cycles": true,
}

// runCheckRepeat runs every workload twice on one seed and once on a
// held-out seed, each in its own process (so host_rss_peak_mb is per
// run), and checks that the virtual metrics repeat exactly, that every
// host metric of the same-seed pair (setup_s included) agrees within its
// bound, and that the traced repeat of a Sim workload is virtually
// identical with a deterministic step count.
func runCheckRepeat(o options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	invoke := func(workload string, seed uint64, trace int) (*result, error) {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w\n%s", workload, seed, trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: parse result line: %w", workload, err)
		}
		return &res, nil
	}

	var failures []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failures = append(failures, msg)
		fmt.Println("  FAIL:", msg)
	}
	for _, sp := range specs {
		fmt.Printf("%s\n", sp.name)
		a, err := invoke(sp.name, o.seed, 0)
		if err != nil {
			return err
		}
		b, err := invoke(sp.name, o.seed, 0)
		if err != nil {
			return err
		}
		held, err := invoke(sp.name, o.seed+1, 0)
		if err != nil {
			return err
		}
		if a.Failed != b.Failed || a.Attempted != b.Attempted {
			fail("%s: attempted/failed %d/%d then %d/%d on the same seed", sp.name, a.Attempted, a.Failed, b.Attempted, b.Failed)
		}
		for _, d := range endToEnd {
			x, y, z := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, held.Metrics[d.Name].Value
			spread := 0.0
			if x != 0 {
				spread = (y - x) / x
			}
			fmt.Printf("  %-22s %14.6g %14.6g  (%+.2f%%)   held-out seed %14.6g\n", d.Name, x, y, 100*spread, z)
			switch {
			case exactMetrics[d.Name]:
				if x != y {
					fail("%s: %s = %v then %v on the same seed, want bit-identical", sp.name, d.Name, x, y)
				}
			case math.Abs(spread) > d.Bound:
				fail("%s: %s = %v then %v on the same code, outside the bound of %.0f%%",
					sp.name, d.Name, x, y, 100*d.Bound)
			}
		}
		t1, err := invoke(sp.name, o.seed, 1)
		if err != nil {
			return err
		}
		fmt.Printf("  traced: host overhead %+.1f%%\n", 100*t1.Metrics["trace.host_overhead_share"].Value)
		if sp.native {
			continue // no virtual clock: the per-layer metrics that repeat exactly are all Sim
		}
		fmt.Printf("  traced: virtual_identical %v, sched steps/op %v\n",
			t1.Metrics["trace.virtual_identical"].Value == 1, t1.Metrics["machine.sched_steps_per_op"].Value)
		t2, err := invoke(sp.name, o.seed, 1)
		if err != nil {
			return err
		}
		if t1.Metrics["trace.virtual_identical"].Value != 1 {
			fail("%s: traced run is not virtually identical to the untraced run", sp.name)
		}
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "host") || d.Name == "trace.host_overhead_share" {
				continue // host measurements are not exact
			}
			if x, y := t1.Metrics[d.Name].Value, t2.Metrics[d.Name].Value; x != y {
				fail("%s: per-layer %s = %v then %v on the same seed", sp.name, d.Name, x, y)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("check-repeat: %d check(s) failed", len(failures))
	}
	fmt.Println("check-repeat: ok")
	return nil
}
