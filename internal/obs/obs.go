// Package obs is the deterministic observability layer of the simulator:
// structured event tracing and a typed metrics registry, both designed so
// that enabling them cannot perturb a run.
//
// Two properties carry that guarantee. First, every event is timestamped
// in simulation cycles, never wall-clock, so two runs of the same seed
// produce the same trace bytes and traces are diffable across kernels,
// worker counts and machines. Second, the hooks are pull-free: simulation
// code emits into a Tracer only behind a call-site nil check (enforced by
// the obspure analyzer), so a disabled tracer costs one predictable
// branch and no argument construction — the nil-tracer fast path the
// kernel benchmarks gate at <2%.
//
// Under the active kernel's sharded Eval pass events are emitted
// concurrently, so a Collector serialises appends with a mutex and the
// exporters canonically sort events before writing (cell, cycle, scope,
// track, kind, value, detail). Per-track relative order is already
// deterministic — a component emits at most once per (cycle, kind, value)
// — so the sort normalises away only the scheduler-dependent cross-track
// interleaving and exported traces are byte-identical for any shard
// count.
package obs

import (
	"sort"
	"sync"
)

// Scope classifies an event stream by what it is allowed to depend on.
type Scope uint8

const (
	// ScopeDomain events record simulation facts (flow setup, word
	// injection, flit delivery) that are byte-identical under every
	// kernel — the cross-kernel half of the trace-equivalence test.
	ScopeDomain Scope = iota
	// ScopeKernel events record scheduling decisions (eval, park, wake,
	// fast-forward, timer) of the selected kernel. They are deterministic
	// per kernel (including across shard counts) but differ between
	// kernels by design.
	ScopeKernel
)

// String names the scope.
func (s Scope) String() string {
	if s == ScopeKernel {
		return "kernel"
	}
	return "domain"
}

// Event kinds emitted by the simulation layers. Kinds are ordinary
// strings so domain layers can add their own without touching this
// package.
const (
	KindEval           = "eval"
	KindWake           = "wake"
	KindPark           = "park"
	KindUnpark         = "unpark"
	KindFastForward    = "fast-forward"
	KindTimer          = "timer"
	KindFlowSetup      = "flow-setup"
	KindFlowTeardown   = "flow-teardown"
	KindAdmissionBlock = "admission-block"
	KindInject         = "inject"
	KindDeliver        = "deliver"
	KindCacheHit       = "cache-hit"
	KindCacheMiss      = "cache-miss"
)

// Event is one traced occurrence, timestamped in simulation cycles.
type Event struct {
	// Cycle is the simulation cycle the event happened on.
	Cycle uint64
	// Cell distinguishes sweep cells sharing one Collector; 0 outside
	// sweeps. Exporters map it to the Chrome trace process id.
	Cell int
	// Scope separates kernel-scheduling events from domain events.
	Scope Scope
	// Track is the emitting component or subsystem; exporters map it to
	// one Chrome trace thread per track.
	Track string
	// Kind is the event type (one of the Kind constants, or a domain
	// layer's own).
	Kind string
	// Value is the event's numeric payload (flow id, window length,
	// latency); 0 when the kind carries none.
	Value int64
	// Detail is an optional free-form annotation. Emitting code must
	// build it without calling non-obs functions (the obspure contract),
	// so prefer precomputed strings.
	Detail string
}

// less is the canonical event order every exporter applies: all fields
// compare, so two sorted traces are equal iff their event multisets are.
func less(a, b Event) bool {
	switch {
	case a.Cell != b.Cell:
		return a.Cell < b.Cell
	case a.Cycle != b.Cycle:
		return a.Cycle < b.Cycle
	case a.Scope != b.Scope:
		return a.Scope < b.Scope
	case a.Track != b.Track:
		return a.Track < b.Track
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.Value != b.Value:
		return a.Value < b.Value
	default:
		return a.Detail < b.Detail
	}
}

// SortEvents sorts events into the canonical exporter order in place.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return less(evs[i], evs[j]) })
}

// Tracer receives events. Implementations must be safe for concurrent
// Emit calls: the active kernel's sharded Eval pass emits from multiple
// goroutines. Simulation code must nil-check its tracer at every call
// site (the obspure analyzer enforces this) so the disabled path skips
// argument construction entirely.
type Tracer interface {
	Emit(Event)
}

// Collector is the standard Tracer: a mutex-protected in-memory buffer
// whose accessors and exporters return events in canonical order.
type Collector struct {
	mu  sync.Mutex
	evs []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

// Events returns a copy of the collected events in canonical order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	out := make([]Event, len(c.evs))
	copy(out, c.evs)
	c.mu.Unlock()
	SortEvents(out)
	return out
}

// CellTracer stamps every forwarded event with a sweep-cell index, so
// concurrent cells share one Collector without colliding tracks.
type CellTracer struct {
	T    Tracer
	Cell int
}

// Emit implements Tracer.
func (t CellTracer) Emit(e Event) {
	e.Cell = t.Cell
	t.T.Emit(e)
}

// Hooks bundles the per-run observability sinks threaded through the
// simulation layers. The zero value (all nil) is fully disabled; every
// use is nil-guarded at the call site.
type Hooks struct {
	// Tracer receives structured events; nil disables tracing.
	Tracer Tracer
	// Metrics is the run's metrics registry; nil disables the optional
	// hot-path instruments (control-path metrics are scraped after the
	// run instead).
	Metrics *Registry
}
