// Package harden defines the configuration and report vocabulary of the
// allocator's corruption-hardening layer. The layer itself lives inside
// the allocator (internal/core), which also checks the objects of typed
// caches over it (internal/objcache); this package holds only the parts
// it shares with callers — the knobs, the provenance records, and the
// typed CorruptionReport a detection produces — so that facade-level
// code can configure hardening and consume reports without importing
// allocator internals.
//
// The hardening layer provides, when enabled:
//
//   - per-object redzones: each block, span or cache object is sized up
//     by a few canary bytes whose fill is verified on free and on
//     reclaim audit sweeps, so an out-of-band write past the requested
//     size is caught at the latest on the next free;
//   - poison-on-free with verify-on-alloc: freed blocks and cache
//     objects are filled with PoisonByte and re-verified when handed out
//     again (and by audit sweeps), so a late write through a stale
//     pointer is caught at the latest on the next allocation;
//   - ownership tracking: a per-block owner slot (an extension of the
//     allocator's dope vector) records the last alloc and free with
//     site tag, CPU, node and sim-cycle, and every event also lands in
//     a bounded per-CPU audit ring;
//   - graceful degradation: under the default PolicyQuarantine a
//     detection quarantines a block's page (pulled from freelists, kept
//     mapped for post-mortem), keeps a span allocated or pins a cache
//     object, and the allocator keeps serving.
package harden

import (
	"fmt"
	"strings"
)

// PoisonByte fills freed payloads ("0xdeadbeef-style"); distinct from
// core's legacy 0xdb poison and the lazy-span 0xdc decommit scrub so a
// post-mortem hexdump names the machinery that wrote each byte.
const PoisonByte = 0xde

// CanaryByte fills redzones while a block is allocated.
const CanaryByte = 0xca

// DefaultRedzone is the per-object redzone width in bytes: two words,
// enough to catch the common off-by-one and small memset overruns
// without moving any block into the next size class for typical
// requests. The redzone is carved out of the block's size class: a
// hardened request for n bytes maps to the class serving
// n+DefaultRedzone, so the canary never overlaps caller bytes.
const DefaultRedzone = 16

// DefaultRingSize is the per-CPU audit-ring capacity in records.
const DefaultRingSize = 64

// Policy selects what a detection does after the report is filed.
type Policy uint8

const (
	// PolicyQuarantine (the default) files the report, quarantines the
	// containing page or object, and keeps serving. Quarantined memory
	// stays mapped for post-mortem inspection and is never reused.
	PolicyQuarantine Policy = iota
	// PolicyPanic panics with the report — the fail-stop debug mode.
	PolicyPanic
	// PolicyLog files the report (and the OnReport callback) and heals
	// the finding — restores the canary or poison — but takes no
	// containment action; the corrupt block continues to circulate.
	PolicyLog
)

// String returns the policy's conventional name.
func (p Policy) String() string {
	switch p {
	case PolicyQuarantine:
		return "quarantine"
	case PolicyPanic:
		return "panic"
	case PolicyLog:
		return "log"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Kind classifies a detected corruption.
type Kind uint8

const (
	// KindOverrun: a redzone canary was destroyed while the block was
	// allocated — an out-of-band write past the requested size.
	KindOverrun Kind = iota
	// KindDoubleFree: a free of a block whose owner slot already says
	// free (or that was never allocated).
	KindDoubleFree
	// KindUseAfterFree: the free-poison was destroyed while the block
	// sat on a freelist — a late write through a stale pointer.
	KindUseAfterFree
)

// String returns the kind's conventional name.
func (k Kind) String() string {
	switch k {
	case KindOverrun:
		return "overrun"
	case KindDoubleFree:
		return "double-free"
	case KindUseAfterFree:
		return "use-after-free"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Config enables and tunes the hardening layer. The zero value selects
// every check with default parameters and PolicyQuarantine; hardening as
// a whole is enabled by presence (a non-nil *Config) and disabled by
// absence, so the allocator's fast paths carry only a nil test when off.
type Config struct {
	// Policy selects panic, quarantine-and-continue (default), or
	// log-only handling after a detection.
	Policy Policy
	// OnReport, when non-nil, observes every CorruptionReport as it is
	// filed, before the policy acts (so PolicyPanic callers still see
	// the structured report). It may be called with allocator-internal
	// locks held and must not call back into the allocator.
	OnReport func(Report)
}

// Op tags an audit-ring record.
type Op uint8

const (
	// OpNone marks an empty/unknown record (the zero value).
	OpNone Op = iota
	// OpAlloc records a block handed to a caller.
	OpAlloc
	// OpFree records a block handed back.
	OpFree
)

// String returns the op's conventional name.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Record is one provenance event: who touched a block last, from where,
// and when. Records live in per-block owner slots (last alloc / last
// free) and in the bounded per-CPU audit rings.
type Record struct {
	Op    Op
	Addr  uint64
	Site  string // caller-provided site tag ("" when none was set)
	CPU   int
	Node  int
	Cycle int64  // sim-cycle of the event (0 in Native mode)
	Seq   uint64 // global event sequence, for ordering across CPUs
}

// Known reports whether the record holds a real event.
func (r Record) Known() bool { return r.Op != OpNone }

func (r Record) String() string {
	if !r.Known() {
		return "(unknown)"
	}
	site := r.Site
	if site == "" {
		site = "-"
	}
	return fmt.Sprintf("%s %#x site=%s cpu=%d node=%d cycle=%d seq=%d",
		r.Op, r.Addr, site, r.CPU, r.Node, r.Cycle, r.Seq)
}

// Ring is a bounded audit ring of provenance records. It is not
// internally synchronized: the allocator pushes and snapshots under its
// own hardening lock.
type Ring struct {
	rec []Record
	n   uint64 // total records ever pushed
}

// NewRing returns a ring holding up to size records.
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{rec: make([]Record, size)}
}

// Push appends a record, evicting the oldest when full.
func (r *Ring) Push(rec Record) {
	r.rec[r.n%uint64(len(r.rec))] = rec
	r.n++
}

// Len returns the number of records currently held.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.rec)) {
		return int(r.n)
	}
	return len(r.rec)
}

// Snapshot returns the held records, oldest first.
func (r *Ring) Snapshot() []Record {
	n := r.Len()
	out := make([]Record, 0, n)
	start := r.n - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, r.rec[(start+i)%uint64(len(r.rec))])
	}
	return out
}

// Report is the typed CorruptionReport a detection produces: what was
// detected, where, by whom, and the last-owner provenance from the
// block's owner slot plus the detecting CPU's recent audit-ring records.
type Report struct {
	Kind Kind
	// Cache names the object cache the detection occurred in; "" for
	// detections on the core allocator's block paths.
	Cache string
	// Addr is the corrupt block (or object) address; Class its size
	// class (-1 for large blocks and cache objects); Size the block or
	// object size in bytes.
	Addr  uint64
	Class int
	Size  uint64
	// Offset / Expected / Got locate the first bad byte for overrun and
	// use-after-free detections (offset is relative to Addr). Zero for
	// double frees, which corrupt bookkeeping rather than bytes.
	Offset   uint64
	Expected byte
	Got      byte
	// The detection point: CPU, node, sim-cycle, and the detecting
	// caller's site tag.
	CPU   int
	Node  int
	Cycle int64
	Site  string
	// Last-owner provenance from the block's owner slot. A zero-Op
	// record means the event predates tracking (or the ring evicted it).
	LastAlloc Record
	LastFree  Record
	// Recent is the detecting CPU's audit ring at detection time,
	// oldest first.
	Recent []Record
}

// String renders the report in the multi-line form the README documents.
func (r *Report) String() string {
	var b strings.Builder
	where := "core"
	if r.Cache != "" {
		where = fmt.Sprintf("cache %q", r.Cache)
	}
	fmt.Fprintf(&b, "kmem corruption: %s in %s at %#x (class %d, size %d)\n",
		r.Kind, where, r.Addr, r.Class, r.Size)
	if r.Kind != KindDoubleFree {
		fmt.Fprintf(&b, "  first bad byte: offset %d, expected %#02x, got %#02x\n",
			r.Offset, r.Expected, r.Got)
	}
	site := r.Site
	if site == "" {
		site = "-"
	}
	fmt.Fprintf(&b, "  detected by: cpu=%d node=%d cycle=%d site=%s\n",
		r.CPU, r.Node, r.Cycle, site)
	fmt.Fprintf(&b, "  last alloc:  %s\n", r.LastAlloc)
	fmt.Fprintf(&b, "  last free:   %s", r.LastFree)
	return b.String()
}
