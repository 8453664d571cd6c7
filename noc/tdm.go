package noc

import (
	"fmt"

	"repro/internal/aethereal"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// tdmFabric implements Fabric with the Æthereal-style slot-table TDM
// router of Table 4.
type tdmFabric struct {
	cfg config
}

// Kind implements Fabric.
func (f *tdmFabric) Kind() Kind { return KindTDM }

// String implements Fabric.
func (f *tdmFabric) String() string {
	p := f.cfg.tdmParams()
	return fmt.Sprintf("Aethereal TDM (%d slots, %d-word BE FIFOs)", p.Slots, p.BEDepth)
}

// Validate implements Fabric.
func (f *tdmFabric) Validate() error { return f.cfg.validate(KindTDM) }

// setObs injects observability hooks (sweep engine): an injected
// tracer/registry is owned by the injector, so Run leaves export and
// snapshotting to it.
func (f *tdmFabric) setObs(h obs.Hooks) { f.cfg.obs = h }

// Run implements Fabric. Each stream is given a contention-free
// guaranteed-throughput reservation in the slot table whose bandwidth
// share matches one circuit-switched lane (the scenarios' "100% load of
// a single lane"), then words are streamed through the reservations and
// metered. Workload scenarios are not supported. With caching enabled
// (WithCache), a single run is served from the content-addressed cache
// when its key matches.
func (f *tdmFabric) Run(sc Scenario) (*Result, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := f.cfg
	fin := cfg.beginObs()
	res, err := runFabric(KindTDM, cfg, sc, f.run)
	if err != nil {
		return nil, err
	}
	return res, fin(res)
}

// run executes one non-replicated, defaulted, validated scenario.
func (f *tdmFabric) run(cfg config, sc Scenario) (*Result, error) {
	if sc.IsPattern() {
		return runTDMPattern(cfg, sc)
	}
	if sc.IsWorkload() {
		return nil, fmt.Errorf("noc: the Aethereal TDM fabric does not support workload scenarios (use CircuitSwitched)")
	}
	p := cfg.tdmParams()
	lib := cfg.mustLib()

	// One stream per input port: the functional model registers one
	// upstream word per port, like the real router's input stage.
	seenIn := map[Port]bool{}
	for _, st := range sc.Streams {
		if seenIn[st.In] {
			return nil, fmt.Errorf("noc: TDM fabric: two streams enter on port %v", st.In)
		}
		seenIn[st.In] = true
	}

	r := aethereal.NewRouter(p)
	// A circuit-switched lane moves one 16-bit word per 5 cycles; the
	// functional TDM model forwards one word per reserved slot, so
	// matching that rate takes a fifth of the table, rounded up (the
	// 32-bit link has bandwidth to spare — the slot count, not the link
	// width, is the limit).
	const wordPeriod = 5
	slotsNeeded := (p.Slots + wordPeriod - 1) / wordPeriod
	if slotsNeeded < 1 {
		slotsNeeded = 1
	}
	type reservation struct {
		in, out int
		slots   []int
	}
	var reservations []reservation
	for _, st := range sc.Streams {
		in, out := int(st.In), int(st.Out)
		rv := reservation{in: in, out: out}
		// Spread the reservation over the table, probing linearly past
		// occupied entries; an input may only feed one output per slot.
		stride := p.Slots / slotsNeeded
		for k := 0; k < slotsNeeded; k++ {
			booked := false
			for probe := 0; probe < p.Slots; probe++ {
				s := (k*stride + probe) % p.Slots
				if r.Table.Entry(s, out) != aethereal.NoInput {
					continue
				}
				if r.Table.InputBusy(s, in) {
					continue
				}
				if err := r.Table.Reserve(s, in, out); err != nil {
					return nil, err
				}
				rv.slots = append(rv.slots, s)
				booked = true
				break
			}
			if !booked {
				return nil, fmt.Errorf("noc: TDM fabric: slot table full for stream %d (%d slots, %d streams)",
					st.ID, p.Slots, len(sc.Streams))
			}
		}
		reservations = append(reservations, rv)
	}
	if err := r.Table.Validate(); err != nil {
		return nil, err
	}

	meter := power.NewMeter(aethereal.Netlist(p, lib), lib, sc.FreqMHz)
	// The router ticks the meter itself (Commit, IdleTick and batched
	// IdleWindow), replacing the every-cycle monitor Func that used to
	// pin every kernel to every cycle — with componentized stream
	// drivers below, finite TDM scenarios now fast-forward.
	r.BindMeter(meter)
	w := sim.NewWorld(cfg.worldOpts()...)
	w.Add(r)

	// The average toggling bits per forwarded word under the pattern's
	// flip probability, split over register, crossbar and link nets.
	toggleBits := int(sc.Data.FlipProb*wordBits + 0.5)

	var (
		sources []*traffic.Source
		flows   []*traffic.TDMFlow
		lat     stats.Series
	)
	if sc.poolLatency {
		lat.Retain()
	}
	pat := traffic.Pattern{FlipProb: sc.Data.FlipProb, Load: sc.Data.Load}
	for i, st := range sc.Streams {
		rv := reservations[i]
		src := traffic.NewSourceSeeded(pat, st.ID, sc.Seed)
		sources = append(sources, src)

		reserved := make([]bool, p.Slots)
		for _, s := range rv.slots {
			reserved[s] = true
		}
		// A word offered this cycle is staged through Enqueue, merged at
		// the presenter's Commit and presentable the next cycle — the
		// registration order of offerer and presenter does not matter.
		// One stream per input port (checked above), so each stream gets
		// its own presenter.
		pres := traffic.NewTDMPresenter(r, rv.in)
		flow := pres.AddFlow(rv.out, reserved, &lat, toggleBits, meter)
		flow.Trace(cfg.obs.Tracer, fmt.Sprintf("stream%d.tdm", st.ID))
		flows = append(flows, flow)
		w.Add(&tdmOffer{
			src: src, flow: flow, limit: sc.WordsPerStream,
			wordPeriod: wordPeriod,
		}, pres)
	}

	w.Run(sc.Cycles)
	var ks *KernelStats
	cfg.observeKernel(&ks)(w)

	var delivered uint64
	for _, fl := range flows {
		delivered += fl.Delivered()
	}
	breakdown := meter.Report("aethereal / scenario " + sc.Name)
	res := &Result{
		Fabric:         KindTDM,
		Scenario:       sc.Name,
		FreqMHz:        sc.FreqMHz,
		Cycles:         sc.Cycles,
		WordsDelivered: delivered,
		ThroughputMbps: stats.Rate(delivered, wordBits, uint64(sc.Cycles), sc.FreqMHz),
		Power:          powerFrom(breakdown),
		PerComponent:   attributionComponents(meter.AttributionSorted(), breakdown.StaticUW),
		Latency:        latencyFrom(lat),
		Kernel:         ks,
	}
	for _, s := range sources {
		res.WordsSent += s.Sent()
	}
	return res, nil
}

// tdmOffer drives one Table-3 stream's source: it offers words at the
// lane rate through the load gate and enqueues them on the stream's
// traffic.TDMFlow, whose TDMPresenter (the single shared
// implementation of the slot presentation/delivery algorithm) does the
// rest. It is a first-class component rather than a bare sim.Func so
// the kernel can retire it: while the source is live the offerer runs
// every cycle (the load gate draws once per offer opportunity, part of
// the cross-kernel byte-identity contract), but once the word budget is
// spent it goes quiescent forever, the presenter drains, and the event
// kernel fast-forwards the rest of the run.
type tdmOffer struct {
	src        *traffic.Source
	flow       *traffic.TDMFlow
	limit      uint64 // emitted-word budget; 0 = unlimited
	wordPeriod int
	cycle      uint64
}

// Eval implements sim.Clocked: offer words at the lane rate, gated by
// the load knob. A retired source (word budget exhausted) stops drawing
// from the load gate, mirroring the other fabrics' runners.
func (s *tdmOffer) Eval() {
	if s.cycle%uint64(s.wordPeriod) == 0 &&
		(s.limit == 0 || s.src.Sent() < s.limit) {
		if word, ok := s.src.Offer(); ok {
			s.flow.Enqueue(uint32(word.Data), s.cycle)
		}
	}
}

// Commit implements sim.Clocked.
func (s *tdmOffer) Commit() { s.cycle++ }

// Quiescent implements sim.Quiescer: only a retired source is
// skippable — a live one's load gate must draw every period. Drained
// queues are the presenter's quiescence condition, not the offerer's.
func (s *tdmOffer) Quiescent() bool {
	return s.limit > 0 && s.src.Sent() >= s.limit
}

// IdleTick implements sim.IdleTicker: the local clock tracks skipped
// cycles (only reachable after retirement, where it is no longer read,
// but kept exact regardless).
func (s *tdmOffer) IdleTick() { s.cycle++ }

// IdleWindow implements sim.IdleWindower.
func (s *tdmOffer) IdleWindow(n uint64) { s.cycle += n }

var _ sim.IdleWindower = (*tdmOffer)(nil)
var _ sim.Quiescer = (*tdmOffer)(nil)
