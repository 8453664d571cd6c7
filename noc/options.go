package noc

import (
	"fmt"
	"io"

	"repro/internal/aethereal"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packetsw"
	"repro/internal/sim"
	"repro/internal/stdcell"
)

// Kernel selects the simulation kernel a fabric runs its worlds on.
type Kernel string

const (
	// KernelGated is the activity-tracked kernel: quiescent components
	// — unconfigured routers, drained converters, exhausted sources —
	// are skipped each cycle, with results byte-identical to
	// KernelNaive. The software analogue of the paper's clock gating.
	KernelGated Kernel = "gated"
	// KernelNaive evaluates every component every cycle. It exists for
	// verification (the CI byte-compare) and benchmarking the speedup.
	KernelNaive Kernel = "naive"
	// KernelEvent is the event-driven scheduler (the default): per
	// cycle it matches the gated kernel, and additionally fast-forwards
	// whole windows in which every component is quiescent — sparse
	// pattern sources, retired finite workloads, the dead time between
	// scheduled BE bursts — replaying idle bookkeeping in O(components)
	// instead of O(components·cycles). Results stay byte-identical to
	// both other kernels, which is why it can be the default: with
	// every stimulus now a first-class quiescent component (no
	// every-cycle Func channel drivers remain), fast-forward engages
	// whenever the world is genuinely idle and costs nothing when it
	// is not.
	KernelEvent Kernel = "event"
	// KernelActive keeps explicit active/parked component lists: a
	// component that is provably inert until external stimulus — parked
	// routers, drained converters, self-scheduled sources between
	// emissions — leaves the per-cycle sweep entirely and is
	// re-activated by the event that touches it. The remaining active
	// list's Eval sweep is sharded across a bounded goroutine pool
	// (WithParallelism). Results stay byte-identical to the other
	// kernels for every worker count.
	KernelActive Kernel = "active"
)

// ParseKernel resolves a kernel name; the empty string means the
// default event kernel. Unknown names are rejected with the valid
// kernels listed — a typoed kernel fails loudly instead of silently
// running the default.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case "", KernelEvent:
		return KernelEvent, nil
	case KernelGated:
		return KernelGated, nil
	case KernelNaive:
		return KernelNaive, nil
	case KernelActive:
		return KernelActive, nil
	default:
		return "", fmt.Errorf("noc: unknown kernel %q (have %s, %s, %s, %s)",
			s, KernelGated, KernelNaive, KernelEvent, KernelActive)
	}
}

// Option tunes a fabric away from the paper's default configuration.
// Options that do not apply to a fabric are ignored by it (e.g.
// WithBufferDepth on the circuit-switched fabric, which has no buffers).
// Invalid values are reported by Fabric.Validate, not at option time.
type Option func(*config)

// config collects every fabric knob; the zero value of each field means
// "paper default".
type config struct {
	lanes       int // circuit: lanes per port (default 4)
	laneWidth   int // circuit: bits per lane (default 4)
	vcs         int // packet: virtual channels (default 4)
	bufferDepth int // packet: per-VC FIFO depth in flits (default 8)
	slots       int // TDM: slot-table length (default 32)
	beDepth     int // TDM: best-effort FIFO depth in words (default 16)

	gated        bool   // circuit: configuration-driven clock gating
	corner       string // library corner: "nominal" (default) or "hvt"
	latencyWords int    // latency sample count; -1 default, 0 disables
	traceCycles  int    // workload runs: VCD capture depth for node (0,0)
	kernel       Kernel // simulation kernel; "" means event
	parallelism  int    // active kernel: Eval shard pool; 0 means GOMAXPROCS

	worldObserver func(*sim.World) // test hook: kernel diagnostics after a run

	cacheOn  bool   // content-addressed result cache enabled
	cacheDir string // cache directory; "" = process-wide in-memory cache

	trace     io.Writer // Chrome trace-event JSON destination (WithTrace)
	metricsOn bool      // collect Result.Metrics (WithMetrics)
	obs       obs.Hooks // resolved per-run hooks (beginObs / sweep injection)
}

func makeConfig(opts []Option) config {
	c := config{corner: "nominal", latencyWords: -1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithLanes sets the circuit-switched router's lane count per port
// (paper: 4). Streams occupy lane ID-1, so a scenario's highest stream
// ID must not exceed the lane count.
func WithLanes(n int) Option { return func(c *config) { c.lanes = n } }

// WithLaneWidth sets the circuit-switched lane width in bits. Only the
// paper's 4-bit lanes can be simulated — the cycle-accurate data
// converters model the Fig. 6 wire format exactly, so Validate rejects
// any other value; alternative widths exist in the structural `lanes`
// experiment (area/frequency only).
func WithLaneWidth(bits int) Option { return func(c *config) { c.laneWidth = bits } }

// WithVirtualChannels sets the packet-switched router's VC count per
// input port (paper: 4).
func WithVirtualChannels(n int) Option { return func(c *config) { c.vcs = n } }

// WithBufferDepth sets the packet-switched per-VC FIFO depth in flits
// (paper: 8).
func WithBufferDepth(flits int) Option { return func(c *config) { c.bufferDepth = flits } }

// WithSlots sets the TDM slot-table length (Æthereal default: 32).
func WithSlots(n int) Option { return func(c *config) { c.slots = n } }

// WithBEDepth sets the TDM router's per-port best-effort FIFO depth in
// words (default: 16).
func WithBEDepth(words int) Option { return func(c *config) { c.beDepth = words } }

// WithClockGating enables the circuit-switched router's
// configuration-driven clock gating — the paper's Section 8 future work.
func WithClockGating(on bool) Option { return func(c *config) { c.gated = on } }

// WithLibraryCorner selects the 0.13 µm technology corner: "nominal"
// (the paper's LVT calibration, default) or "hvt" (low leakage).
func WithLibraryCorner(corner string) Option { return func(c *config) { c.corner = corner } }

// WithLatencyWords sets how many timed word deliveries the latency
// measurement collects per single-router run (default 200); 0 disables
// the latency measurement entirely.
func WithLatencyWords(n int) Option { return func(c *config) { c.latencyWords = n } }

// WithNodeTrace records up to the given number of cycles of node (0,0)'s
// lane signals during a workload run, returned as a VCD waveform in
// Result.NodeVCD. Zero (the default) disables tracing.
func WithNodeTrace(cycles int) Option { return func(c *config) { c.traceCycles = cycles } }

// WithKernel selects the simulation kernel (default KernelEvent).
// Results are byte-identical under all kernels; they differ only in
// speed. The gated kernel skips quiescent components cycle by cycle;
// the event kernel additionally fast-forwards fully idle windows, which
// pays on sparse pattern runs, finite workloads (WordsPerStream) and
// scheduled bursts. The naive kernel evaluates everything and exists
// for verification.
func WithKernel(k Kernel) Option { return func(c *config) { c.kernel = k } }

// WithParallelism bounds the goroutine pool KernelActive shards its
// Eval sweep over: 1 keeps the simulation single-threaded, 0 (the
// default) means GOMAXPROCS. Results are byte-identical for every
// value; the other kernels ignore it.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithCache enables the content-addressed result cache: every single
// run (including each replication of a replicated run) is keyed by a
// canonical hash of its fully resolved configuration, seed and a
// code-version fingerprint, and a repeated run is served from the cache
// byte-identically instead of re-simulating. dir persists results on
// disk across processes; the empty string keeps a process-wide
// in-memory cache. Caches for the same directory are shared within the
// process. Each run is looked up once and, on a miss, stored once. See
// also SweepSpec.Cache / SweepSpec.CacheDir and the `nocbench -cache`
// flag.
func WithCache(dir string) Option {
	return func(c *config) { c.cacheOn, c.cacheDir = true, dir }
}

// resolveCache returns the registry instance for the configured
// directory, or nil when caching is off.
func (c config) resolveCache() (*Cache, error) {
	if !c.cacheOn {
		return nil, nil
	}
	return OpenCache(c.cacheDir)
}

// WithTrace streams a structured event trace of every run to w as
// Chrome trace-event JSON, openable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: one process per sweep cell or replication, one
// thread per traced component or kernel track, one instant event per
// injection, delivery, flow setup, admission block, cache hit or kernel
// scheduling action. Events are timestamped in simulated cycles — never
// wall clock — so the trace of a given configuration is deterministic
// and diffable, and enabling tracing never changes the Result (the
// byte-identity the CI trace-replay step enforces). With a nil writer
// tracing stays disabled; the hot path then costs one nil check per
// event site.
func WithTrace(w io.Writer) Option { return func(c *config) { c.trace = w } }

// WithMetrics attaches a typed metrics registry to every run and
// publishes its deterministic sorted snapshot as Result.Metrics:
// kernel scheduling gauges, the circuit mesh's lane-allocator
// probe/rejection counters and hop histogram, and the result cache's
// traffic. The field is excluded from the JSON wire format, so enabling
// metrics never changes Result output bytes.
func WithMetrics(on bool) Option { return func(c *config) { c.metricsOn = on } }

// withWorldObserver installs a test-only hook that receives a run's
// simulation world after it finishes — fast-forward and activity
// counters for kernel tests and benchmarks. Supported by the pattern
// runs and the TDM runner; the observer must not mutate the world.
func withWorldObserver(fn func(*sim.World)) Option {
	return func(c *config) { c.worldObserver = fn }
}

// defaultLatencyWords is the latency sample count when unset.
const defaultLatencyWords = 200

// validate checks the knobs relevant to the given fabric kind.
func (c config) validate(k Kind) error {
	if _, err := c.lib(); err != nil {
		return err
	}
	if _, err := ParseKernel(string(c.kernel)); err != nil {
		return err
	}
	if c.latencyWords < -1 {
		return fmt.Errorf("noc: negative latency word count %d", c.latencyWords)
	}
	if c.traceCycles < 0 {
		return fmt.Errorf("noc: negative trace depth %d", c.traceCycles)
	}
	switch k {
	case KindCircuit:
		if p := c.coreParams(); p != nil {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("noc: %w", err)
			}
			// The cycle-accurate data converters model the paper's
			// Fig. 6 wire format exactly; other lane widths exist only
			// in the structural area sweeps (the `lanes` experiment).
			if p.LaneWidth != 4 {
				return fmt.Errorf("noc: lane width %d unsupported for simulation: "+
					"the Fig. 6 wire format serializes 16-bit words over 4-bit lanes "+
					"(see the lanes experiment for the structural sweep)", p.LaneWidth)
			}
		}
	case KindPacket:
		if p := c.psParams(); p != nil {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("noc: %w", err)
			}
		}
	case KindTDM:
		if err := c.tdmParams().Validate(); err != nil {
			return fmt.Errorf("noc: %w", err)
		}
	}
	return nil
}

// lib resolves the technology library corner.
func (c config) lib() (stdcell.Lib, error) {
	switch c.corner {
	case "", "nominal":
		return stdcell.Default013(), nil
	case "hvt":
		return stdcell.HighVT013(), nil
	default:
		return stdcell.Lib{}, fmt.Errorf("noc: unknown library corner %q (have nominal, hvt)", c.corner)
	}
}

// mustLib resolves the corner after validate has accepted it.
func (c config) mustLib() stdcell.Lib {
	lib, err := c.lib()
	if err != nil {
		panic(err)
	}
	return lib
}

// coreParams returns the circuit-switched geometry override, or nil for
// the paper's defaults.
func (c config) coreParams() *core.Params {
	if c.lanes == 0 && c.laneWidth == 0 {
		return nil
	}
	p := core.DefaultParams()
	if c.lanes != 0 {
		p.LanesPerPort = c.lanes
	}
	if c.laneWidth != 0 {
		p.LaneWidth = c.laneWidth
	}
	return &p
}

// psParams returns the packet-switched configuration override, or nil
// for the paper's defaults.
func (c config) psParams() *packetsw.Params {
	if c.vcs == 0 && c.bufferDepth == 0 {
		return nil
	}
	p := packetsw.DefaultParams()
	if c.vcs != 0 {
		p.VCs = c.vcs
	}
	if c.bufferDepth != 0 {
		p.Depth = c.bufferDepth
	}
	return &p
}

// tdmParams returns the TDM router configuration.
func (c config) tdmParams() aethereal.Params {
	p := aethereal.DefaultParams()
	if c.slots != 0 {
		p.Slots = c.slots
	}
	if c.beDepth != 0 {
		p.BEDepth = c.beDepth
	}
	return p
}

// latencySamples resolves the latency word count.
func (c config) latencySamples() int {
	if c.latencyWords == -1 {
		return defaultLatencyWords
	}
	return c.latencyWords
}

// simKernel maps the facade's kernel choice onto the kernel type the
// internal simulation worlds take. Unknown names cannot reach here:
// validate rejects them via ParseKernel before any world is built.
func (c config) simKernel() sim.Kernel {
	switch c.kernel {
	case KernelNaive:
		return sim.KernelNaive
	case KernelGated:
		return sim.KernelGated
	case KernelActive:
		return sim.KernelActive
	default:
		return sim.KernelEvent
	}
}

// worldOpts returns the simulation-world options the fabric's worlds
// are built with: the kernel choice, the active kernel's Eval
// parallelism bound, and the structured-event tracer when one is
// attached.
func (c config) worldOpts() []sim.WorldOption {
	return []sim.WorldOption{sim.WithKernel(c.simKernel()),
		sim.WithParallelism(c.parallelism), sim.WithTracer(c.obs.Tracer)}
}

// observeKernel builds the Observe hook the runners install on their
// simulation worlds: it captures the world's scheduling diagnostics
// into *ks for Result.Kernel, mirrors them into the metrics registry
// when one is attached, and chains the test-only world observer.
// Gauges, not counters — a replicated run observes several worlds and
// the snapshot reports the last.
func (c config) observeKernel(ks **KernelStats) func(*sim.World) {
	return func(w *sim.World) {
		*ks = &KernelStats{Parked: w.Parked(), Activations: w.Activations(), Polls: w.Polls()}
		if m := c.obs.Metrics; m != nil {
			m.Gauge("kernel.parked").Set(int64(w.Parked()))
			m.Gauge("kernel.activations").Set(int64(w.Activations()))
			m.Gauge("kernel.polls").Set(int64(w.Polls()))
		}
		if c.worldObserver != nil {
			c.worldObserver(w)
		}
	}
}

// beginObs resolves the per-run observability hooks on the receiver:
// hooks already injected (the sweep engine's per-cell tracer and shared
// registry) are kept as-is and export stays with the injector;
// otherwise WithTrace and WithMetrics create a per-run collector and
// registry. The returned finish function attaches the metrics snapshot
// to the completed Result and writes the Chrome trace; it must run
// after the run (including all replications) completes.
func (c *config) beginObs() func(*Result) error {
	if c.obs.Tracer != nil || c.obs.Metrics != nil {
		return func(*Result) error { return nil }
	}
	var col *obs.Collector
	if c.trace != nil {
		col = obs.NewCollector()
		c.obs.Tracer = col
	}
	if c.metricsOn {
		c.obs.Metrics = obs.NewRegistry()
	}
	dst, reg := c.trace, c.obs.Metrics
	return func(res *Result) error {
		if reg != nil && res != nil {
			res.Metrics = reg.Snapshot()
		}
		if col != nil {
			if err := obs.WriteChrome(dst, col.Events()); err != nil {
				return fmt.Errorf("noc: trace export: %w", err)
			}
		}
		return nil
	}
}

// withCell returns a copy of the config whose tracer stamps events with
// the given cell (or replication) index, so one collector can carry a
// whole sweep with every event attributable to its cell.
func (c config) withCell(cell int) config {
	if c.obs.Tracer != nil {
		c.obs.Tracer = &obs.CellTracer{T: c.obs.Tracer, Cell: cell}
	}
	return c
}

// resolvedCoreParams returns the circuit-switched geometry the fabric
// will simulate (override or paper default).
func (c config) resolvedCoreParams() core.Params {
	if p := c.coreParams(); p != nil {
		return *p
	}
	return core.DefaultParams()
}

// resolvedPSParams returns the packet-switched configuration the fabric
// will simulate (override or paper default).
func (c config) resolvedPSParams() packetsw.Params {
	if p := c.psParams(); p != nil {
		return *p
	}
	return packetsw.DefaultParams()
}
