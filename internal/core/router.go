package core

import (
	"fmt"
	"math/bits"

	"repro/internal/power"
	"repro/internal/stdcell"
)

// Router is the cycle-accurate model of the reconfigurable circuit-switched
// router (Fig. 4): a fully connected crossbar from the foreign input lanes
// to the registered output lanes, a configuration memory, and the reverse
// acknowledgement path. There is no buffering and no arbitration — an
// established physical channel can always be used (Section 4).
//
// Wiring model: inputs are pointers into the *registered* output storage of
// the upstream component (a neighbouring Router's Out array or a
// TxConverter's output register). Because every output is registered and
// all components commit together, reading through these pointers during
// Eval observes pre-clock-edge values regardless of evaluation order.
type Router struct {
	// P are the design-time parameters.
	P Params

	// Out holds the registered output lane values (LaneWidth bits each),
	// indexed by global lane. Downstream components point into it.
	Out []uint8
	// AckOut holds the registered reverse acknowledgements leaving the
	// router towards the upstream source, indexed by global *input* lane.
	AckOut []bool

	// in[g] points at the data source of input lane g (upstream router
	// output or local TxConverter register); nil reads as idle (0).
	in []*uint8
	// ackIn[g] points at the acknowledgement arriving alongside output
	// lane g from downstream; nil reads as false.
	ackIn []*bool

	cfg *Config
	// cfgPending holds configuration commands staged via the
	// configuration interface, applied at the next clock edge.
	cfgPending []ConfigCmd

	// next-state (computed by Eval, made visible by Commit)
	nextOut []uint8
	nextAck []bool

	// meter, when non-nil, receives this router's switching activity.
	meter *power.Meter
	lib   stdcell.Lib
	// gated enables the configuration-driven clock gating of Section 7.3:
	// output registers of disabled lanes draw no clock energy.
	gated bool
	// statsWords counts the valid header nibbles latched by the output
	// registers (see WordsRouted).
	statsWords uint64
	// mask keeps the low LaneWidth bits of a lane value.
	mask uint8

	// activity tracking (sim.Quiescer): a router with no configured lanes,
	// no staged configuration writes and all-idle output registers is a
	// guaranteed no-op — exactly the lanes the paper's clock gating powers
	// down. A configured router is a no-op too whenever every configured
	// input and acknowledgement wire currently shows its idle value; the
	// per-cycle poll re-checks the wires, so traffic lighting up an input
	// is caught on the cycle it appears.
	activeLanes int
	outDirty    bool
	wake        func()
}

// NewRouter returns an unconfigured router with all lanes idle.
func NewRouter(p Params) *Router {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := p.TotalLanes()
	return &Router{
		P:       p,
		Out:     make([]uint8, n),
		AckOut:  make([]bool, n),
		in:      make([]*uint8, n),
		ackIn:   make([]*bool, n),
		cfg:     NewConfig(p),
		nextOut: make([]uint8, n),
		nextAck: make([]bool, n),
		mask:    uint8(1<<uint(p.LaneWidth) - 1),
	}
}

// ConnectIn wires input lane g to read data from src (a registered output
// of the upstream component).
func (r *Router) ConnectIn(g int, src *uint8) { r.in[g] = src }

// ConnectAckIn wires the reverse acknowledgement of output lane g to read
// from src (the upstream-facing ack register of the downstream component).
func (r *Router) ConnectAckIn(g int, src *bool) { r.ackIn[g] = src }

// Config returns the router's live configuration memory.
func (r *Router) Config() *Config { return r.cfg }

// Configure directly establishes a circuit (test and CCN fast path). The
// change is staged like a hardware configuration write and takes effect at
// the next clock edge.
func (r *Router) Configure(c Circuit) error {
	cmd, err := c.Cmd(r.P)
	if err != nil {
		return err
	}
	r.PushConfig(cmd)
	return nil
}

// Deactivate stages the deactivation of an output lane.
func (r *Router) Deactivate(out LaneID) {
	r.PushConfig(ConfigCmd{Out: r.P.Global(out), Sel: LaneSel{}})
}

// PushConfig stages a configuration command, as the BE-network
// configuration interface does; it takes effect at the next clock edge.
func (r *Router) PushConfig(cmd ConfigCmd) {
	if cmd.Out < 0 || cmd.Out >= r.P.TotalLanes() {
		panic(fmt.Sprintf("core: config for lane %d out of range", cmd.Out))
	}
	r.cfgPending = append(r.cfgPending, cmd)
	if r.wake != nil {
		r.wake()
	}
}

// SetWake implements sim.Waker: staged configuration writes re-activate a
// skipped router in the same cycle they are pushed.
func (r *Router) SetWake(fn func()) { r.wake = fn }

// Quiescent implements sim.Quiescer. It is true only when Eval+Commit
// would be a complete no-op: no configuration write is staged, the
// output registers already hold their idle values, and every configured
// output would latch the same idle value again — its selected input
// lane and its acknowledgement wire both idle. (With no circuits
// configured the crossbar ignores its inputs and the scan short-cuts.)
// An all-idle cycle records zero toggles, so skipping it is power-exact.
func (r *Router) Quiescent() bool {
	if len(r.cfgPending) != 0 || r.outDirty {
		return false
	}
	if r.activeLanes == 0 {
		return true
	}
	for g, e := range r.cfg.lanes {
		if e.src == noSource {
			continue
		}
		if r.readIn(int(e.src)) != 0 {
			return false
		}
		if a := r.ackIn[g]; a != nil && *a {
			return false
		}
	}
	return true
}

// IdleTick implements sim.IdleTicker: a quiescent router records zero
// toggles and its meter cycle accounting is driven externally, so idle
// replay is a no-op, declared explicitly to satisfy the Quiescer
// contract checked by nocvet.
func (r *Router) IdleTick() {}

// IdleWindow implements sim.IdleWindower: any idle window replays to the
// same no-op, keeping event-kernel fast-forward O(1).
func (r *Router) IdleWindow(n uint64) {}

// Unconfigured reports whether no circuit is configured and none is
// staged — the state in which the crossbar provably ignores every input.
func (r *Router) Unconfigured() bool {
	return r.activeLanes == 0 && len(r.cfgPending) == 0
}

// BindMeter attaches a power meter. If gated is true the router models the
// configuration-driven clock gating the paper proposes as future work;
// otherwise every register draws clock energy every cycle, matching the
// paper's measured implementation.
func (r *Router) BindMeter(m *power.Meter, lib stdcell.Lib, gated bool) {
	r.meter = m
	r.lib = lib
	r.gated = gated
}

// WordsRouted returns the number of valid header nibbles that crossed the
// crossbar, a convenience traffic statistic.
func (r *Router) WordsRouted() uint64 { return r.statsWords }

// readIn returns the current value of input lane g (0 when unconnected).
func (r *Router) readIn(g int) uint8 {
	if r.in[g] == nil {
		return 0
	}
	return *r.in[g] & r.mask
}

// Eval implements sim.Clocked: it computes the crossbar outputs and the
// reverse acknowledgement routing from the committed inputs, reading each
// output lane's source from the configuration's source table.
func (r *Router) Eval() {
	clear(r.nextAck)
	for g, e := range r.cfg.lanes {
		if e.src == noSource {
			r.nextOut[g] = 0
			continue
		}
		r.nextOut[g] = r.readIn(int(e.src))
		// The acknowledgement arriving with output lane g is routed back
		// to the circuit's input lane. With multicast (several outputs
		// selecting one input) acknowledgements are ORed; the window
		// counter mechanism is defined for unicast circuits.
		if a := r.ackIn[g]; a != nil && *a {
			r.nextAck[e.src] = true
		}
	}
}

// Commit implements sim.Clocked: it latches outputs, accounts this
// cycle's switching activity and applies staged configuration writes.
//
// The power accounting rides on the latch loops, which read each lane's
// old and new register values once: output register and link toggles,
// crossbar multiplexer activity and acknowledgement wires. Clock energy
// is charged by the assembly once per cycle (see Assembly.Commit and
// ClockFJ); converters bound to the same meter account only their own
// registers. The meter receives the register, link and gate counts, then
// the configuration-register toggles, always in that order: its float
// accumulators depend on the order of the AddToggles calls.
func (r *Router) Commit() {
	out, next := r.Out, r.nextOut
	out = out[:len(next)]
	// regFlips counts output-register bit toggles over all lanes,
	// tileFlips those of the tile port's lanes — the first LanesPerPort
	// global lanes, as the tile port is port 0.
	tile := r.P.LanesPerPort
	regFlips, tileFlips := 0, 0
	var words uint64
	var lit uint8
	for g, v := range next {
		d := bits.OnesCount8(out[g] ^ v)
		regFlips += d
		if g < tile {
			tileFlips += d
		}
		// Counting header nibbles overcounts (data nibbles may have bit 0
		// set); the converter-level statistics are exact. This is only a
		// coarse activity indicator. HdrValid is bit 0, so the masked
		// value is the count.
		words += uint64(v & uint8(HdrValid))
		lit |= v
		out[g] = v
	}
	ackOut, nextAck := r.AckOut, r.nextAck
	ackOut = ackOut[:len(nextAck)]
	ackFlips := 0
	anyAck := false
	for g, ack := range nextAck {
		if ackOut[g] != ack {
			ackFlips++
		}
		anyAck = anyAck || ack
		ackOut[g] = ack
	}
	r.statsWords += words
	r.outDirty = lit != 0 || anyAck

	if r.meter != nil {
		// The output register drives the inter-router link; the tile
		// port drives the short local connection to the converter. Data
		// toggles also ripple through about two 2:1 stages of the
		// output's multiplexer tree (the selected path; unselected
		// subtrees are logically shielded). Acknowledgement wires toggle
		// a register and a link each.
		r.meter.AddToggles(power.ToggleReg, regFlips+ackFlips)
		r.meter.AddToggles(power.ToggleLink, regFlips-tileFlips+ackFlips)
		r.meter.AddToggles(power.ToggleGate, tileFlips+2*regFlips)
	}

	if len(r.cfgPending) > 0 {
		if r.meter != nil {
			before := r.cfg.Bits()
			for _, cmd := range r.cfgPending {
				r.cfg.Apply(cmd)
			}
			r.meter.AddToggles(power.ToggleReg, before.Hamming(r.cfg.Bits()))
		} else {
			for _, cmd := range r.cfgPending {
				r.cfg.Apply(cmd)
			}
		}
		r.cfgPending = r.cfgPending[:0]
		r.activeLanes = r.cfg.EnabledLanes()
	}
}

// RouterRegBits returns the router's sequential cell census (excluding
// converters): per lane a LaneWidth-bit output register and a 1-bit
// acknowledgement register, plus the configuration memory.
func RouterRegBits(p Params) int {
	return p.TotalLanes()*(p.LaneWidth+1) + p.ConfigBits()
}

// ClockFJ returns the clock energy the router's registers draw this cycle.
// Ungated, every register is clocked. Gated, only the configuration memory
// and the registers of enabled lanes (output register plus the circuit's
// ack register) are clocked — the clock-gating scheme of Section 7.3 that
// uses "the configuration information of the router to switch off the
// unused lanes".
func (r *Router) ClockFJ(lib stdcell.Lib, gated bool) float64 {
	if !gated {
		return power.ClockEnergyFor(lib, RouterRegBits(r.P), 0)
	}
	// The configuration memory is always live; every enabled lane clocks
	// its output register and its ack register. The configuration changes
	// only at a clock edge (Commit), which recounts activeLanes.
	return power.ClockEnergyFor(lib, r.P.ConfigBits()+r.activeLanes*(r.P.LaneWidth+1), 0)
}
