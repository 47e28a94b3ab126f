//go:build linux && !race

package arena

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// procStatusMB reads a field of this process's /proc/self/status, such
// as VmRSS or VmHWM, in MB.
func procStatusMB(t *testing.T, field string) float64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb / 1024
		}
	}
	t.Skipf("no %s in /proc/self/status", field)
	return 0
}

// TestNewIsDemandZero: a 256 MB arena with three words stored in it
// costs the host the pages those words fall on, not 256 MB.
func TestNewIsDemandZero(t *testing.T) {
	before := procStatusMB(t, "VmRSS")
	a := New(256 << 20)
	a.Store64(8, 1)
	a.Store64(128<<20, 2)
	a.Store64(256<<20-8, 3)
	grew := procStatusMB(t, "VmRSS") - before
	if a.Load64(8)+a.Load64(128<<20)+a.Load64(256<<20-8) != 6 {
		t.Fatal("stores did not read back")
	}
	if grew >= 16 {
		t.Fatalf("New(256 MB) and three stores grew VmRSS by %.1f MB, want < 16", grew)
	}
}

// TestReleasedMappingIsZero: an arena whose predecessor of its size died
// dirty reuses that mapping, and reads all zero.
func TestReleasedMappingIsZero(t *testing.T) {
	const size = 4 << 20
	func() {
		a := New(size)
		a.Fill(8, size-8, 0xa5)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		hosts.mu.Lock()
		n := len(hosts.free[size])
		hosts.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the dead arena's mapping was never released")
		}
		time.Sleep(time.Millisecond)
	}
	b := New(size)
	hosts.mu.Lock()
	left := len(hosts.free[size])
	hosts.mu.Unlock()
	if left != 0 {
		t.Fatalf("New left %d released mappings of its size unused", left)
	}
	if off, ok := b.CheckFill(8, size-8, 0); !ok {
		t.Fatalf("reused mapping holds %#x at %#x, want zero", b.Load32(8+off&^3), 8+off)
	}
}

// TestDeadArenasStayBounded: a process that makes 1000 arenas of 64 MB
// one after another, each touching 4 MB, never holds more than the GC
// bound's worth of them. Mapped bytes are invisible to the GC, so with
// no bound dead arenas would stay resident between its cycles (4 GB).
func TestDeadArenasStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("touches 4 GB of pages")
	}
	const size, touch = 64 << 20, 4 << 20
	for i := 0; i < 1000; i++ {
		a := New(size)
		for off := Addr(8); off < touch; off += 4096 {
			a.Store64(off, uint64(i))
		}
	}
	hwm := procStatusMB(t, "VmHWM")
	t.Logf("VmHWM %.1f MB", hwm)
	if hwm >= 512 {
		t.Fatalf("VmHWM %.0f MB after 1000 arenas of 64 MB touching 4 MB each, want < 512", hwm)
	}
}
