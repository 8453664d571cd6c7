package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/power"
	"repro/internal/stdcell"
)

// datapathParams are the geometries the datapath tests run on: the paper's
// router plus two others, so that the source table and the tile-lane
// index shortcut (the tile port's lanes are the first LanesPerPort global
// lanes) are exercised away from the default lane counts.
func datapathParams() []Params {
	return []Params{
		DefaultParams(),
		{Ports: 3, LanesPerPort: 2, LaneWidth: 4, TileWidth: 16},
		{Ports: 6, LanesPerPort: 3, LaneWidth: 4, TileWidth: 16},
	}
}

// randomSel returns a random lane configuration, enabled three times in
// four.
func randomSel(p Params, rng *bitvec.XorShift64) LaneSel {
	return LaneSel{Enable: rng.Intn(4) != 0, In: rng.Intn(p.ForeignLanes())}
}

// checkSourceTable verifies that the configuration's source table agrees
// with the select fields it was derived from, lane by lane.
func checkSourceTable(t *testing.T, p Params, c *Config, step int, op string) {
	t.Helper()
	for g := 0; g < p.TotalLanes(); g++ {
		sel := c.Lane(g)
		wantIn, wantOK := 0, false
		if sel.Enable {
			wantIn, wantOK = p.InputLane(p.LaneOf(g).Port, sel.In), true
		}
		if in, ok := c.InputFor(g); in != wantIn || ok != wantOK {
			t.Fatalf("%+v step %d after %s: InputFor(%d) = %d,%v, want %d,%v",
				p, step, op, g, in, ok, wantIn, wantOK)
		}
	}
}

// TestConfigSourceTableConsistency drives a router's configuration through
// random sequences of every operation that writes it and checks after each
// step that the crossbar's source table matches the select fields.
func TestConfigSourceTableConsistency(t *testing.T) {
	for _, p := range datapathParams() {
		rng := bitvec.NewXorShift64(uint64(p.Ports*100 + p.LanesPerPort))
		r := NewRouter(p)
		n := p.TotalLanes()
		for step := 0; step < 3000; step++ {
			var op string
			switch rng.Intn(4) {
			case 0:
				op = "Apply"
				r.cfg.Apply(ConfigCmd{Out: rng.Intn(n), Sel: randomSel(p, rng)})
			case 1:
				op = "SetLane"
				r.cfg.SetLane(rng.Intn(n), randomSel(p, rng))
			case 2:
				op = "Copy"
				cp := r.cfg.Copy()
				checkSourceTable(t, p, cp, step, op)
				r.cfg = cp
			default:
				op = "PushConfig+Commit"
				for k := rng.Intn(3); k >= 0; k-- {
					r.PushConfig(ConfigCmd{Out: rng.Intn(n), Sel: randomSel(p, rng)})
				}
				r.Eval()
				r.Commit()
			}
			checkSourceTable(t, p, r.cfg, step, op)
		}
	}
}

// laneScanClockFJ is the reference gated clock energy: the configuration
// memory plus, for every output lane the configuration enables, its
// output register and ack register.
func laneScanClockFJ(r *Router, lib stdcell.Lib) float64 {
	active := r.P.ConfigBits()
	for g := 0; g < r.P.TotalLanes(); g++ {
		if _, ok := r.cfg.InputFor(g); ok {
			active += r.P.LaneWidth + 1
		}
	}
	return power.ClockEnergyFor(lib, active, 0)
}

// TestRouterGatedClockMatchesLaneScan checks the gated clock energy, which
// the router derives from its active-lane count, against a scan of the
// configuration over random reconfigurations.
func TestRouterGatedClockMatchesLaneScan(t *testing.T) {
	lib := stdcell.Default013()
	for _, p := range datapathParams() {
		rng := bitvec.NewXorShift64(uint64(7*p.Ports + p.LanesPerPort))
		r := NewRouter(p)
		for i := 0; i < 2000; i++ {
			for k := rng.Intn(4); k > 0; k-- {
				r.PushConfig(ConfigCmd{Out: rng.Intn(p.TotalLanes()), Sel: randomSel(p, rng)})
			}
			step(r)
			got, want := r.ClockFJ(lib, true), laneScanClockFJ(r, lib)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v step %d: gated ClockFJ = %v, lane scan %v", p, i, got, want)
			}
		}
	}
}

// referenceAccountPower is the router's former separate power-accounting
// pass, run before the latch: it counts this cycle's output register,
// link, multiplexer and acknowledgement toggles lane by lane through
// LaneOf.
func referenceAccountPower(r *Router, m *power.Meter) {
	n := r.P.TotalLanes()
	regFlips, linkFlips, gateFlips, ackFlips := 0, 0, 0, 0
	for g := 0; g < n; g++ {
		d := bitvec.Hamming16(uint16(r.Out[g]), uint16(r.nextOut[g]))
		if d != 0 {
			regFlips += d
			if r.P.LaneOf(g).Port == Tile {
				gateFlips += d
			} else {
				linkFlips += d
			}
			gateFlips += 2 * d
		}
		if r.AckOut[g] != r.nextAck[g] {
			ackFlips++
		}
	}
	m.AddToggles(power.ToggleReg, regFlips+ackFlips)
	m.AddToggles(power.ToggleLink, linkFlips+ackFlips)
	m.AddToggles(power.ToggleGate, gateFlips)
}

// referenceCommit commits an unmetered router the way the former
// datapath did, charging m: the separate accounting pass, the latch, then
// the configuration-register toggles of any staged writes.
func referenceCommit(r *Router, m *power.Meter) {
	referenceAccountPower(r, m)
	var before *bitvec.Vec
	if len(r.cfgPending) > 0 {
		before = r.cfg.Bits()
	}
	r.Commit()
	if before != nil {
		m.AddToggles(power.ToggleReg, before.Hamming(r.cfg.Bits()))
	}
}

// routerStateEqual reports whether two routers hold the same clocked
// state: output and acknowledgement registers, configuration, staged
// configuration writes, and counters. The meter binding is left out, as
// only one of the routers compared below is metered.
func routerStateEqual(a, b *Router) bool {
	return reflect.DeepEqual(a.Out, b.Out) && reflect.DeepEqual(a.AckOut, b.AckOut) &&
		reflect.DeepEqual(a.cfg, b.cfg) && reflect.DeepEqual(a.cfgPending, b.cfgPending) &&
		a.statsWords == b.statsWords && a.outDirty == b.outDirty
}

// TestRouterPowerAccountingMatchesReference drives two routers with the
// same random input, acknowledgement and configuration streams — one
// metered through the fused Commit, one through the former separate
// accounting pass — and requires identical toggle counts, equal energy
// accumulators and equal router state.
func TestRouterPowerAccountingMatchesReference(t *testing.T) {
	lib := stdcell.Default013()
	for _, p := range datapathParams() {
		rng := bitvec.NewXorShift64(uint64(31*p.Ports + p.LanesPerPort))
		n := p.TotalLanes()
		fused, ref := NewRouter(p), NewRouter(p)
		mFused := power.NewMeter(Netlist(p, lib), lib, 25)
		mRef := power.NewMeter(Netlist(p, lib), lib, 25)
		fused.BindMeter(mFused, lib, false)
		inputs := make([]uint8, n)
		acks := make([]bool, n)
		for g := 0; g < n; g++ {
			for _, r := range []*Router{fused, ref} {
				r.ConnectIn(g, &inputs[g])
				r.ConnectAckIn(g, &acks[g])
			}
		}
		for cycle := 0; cycle < 10000; cycle++ {
			if rng.Intn(8) == 0 {
				cmd := ConfigCmd{Out: rng.Intn(n), Sel: randomSel(p, rng)}
				fused.PushConfig(cmd)
				ref.PushConfig(cmd)
			}
			for g := range inputs {
				// Full bytes, so the lane mask is exercised too.
				inputs[g] = uint8(rng.Uint64())
				acks[g] = rng.Intn(3) == 0
			}
			fused.Eval()
			ref.Eval()
			fused.Commit()
			referenceCommit(ref, mRef)
			mFused.Tick()
			mRef.Tick()
		}
		for k := power.ToggleReg; k <= power.ToggleBufBit; k++ {
			if got, want := mFused.Toggles(k), mRef.Toggles(k); got != want {
				t.Errorf("%+v: %v toggles = %d, reference %d", p, k, got, want)
			}
		}
		if mFused.Toggles(power.ToggleLink) == 0 {
			t.Errorf("%+v: the random streams produced no link toggles", p)
		}
		if !reflect.DeepEqual(mFused, mRef) {
			t.Errorf("%+v: meter accumulators differ from the reference", p)
		}
		bf, br := mFused.Report("fused"), mRef.Report("ref")
		if math.Float64bits(bf.InternalUW) != math.Float64bits(br.InternalUW) ||
			math.Float64bits(bf.SwitchingUW) != math.Float64bits(br.SwitchingUW) {
			t.Errorf("%+v: report %+v, reference %+v", p, bf, br)
		}
		if !routerStateEqual(fused, ref) {
			t.Errorf("%+v: router state differs from the reference", p)
		}
	}
}

// TestAssemblyBusyCycleAllocatesNothing guards the steady-state datapath:
// a metered, clock-gated two-router circuit carrying back-to-back words,
// acknowledgements included, allocates nothing per cycle.
func TestAssemblyBusyCycleAllocatesNothing(t *testing.T) {
	a, b, _ := pair(t)
	p := DefaultParams()
	lib := stdcell.Default013()
	for _, asm := range []*Assembly{a, b} {
		asm.BindMeter(power.NewMeter(Netlist(p, lib), lib, 25), lib, true)
	}
	n := uint16(0)
	received := 0
	cycle := func() {
		if a.Tx[0].Ready() && a.Tx[0].Push(DataWord(n)) {
			n++
		}
		if _, ok := b.Rx[0].Pop(); ok {
			received++
		}
		a.Eval()
		b.Eval()
		a.Commit()
		b.Commit()
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	before := received
	// AllocsPerRun truncates the mean to an integer, so each run spans
	// enough cycles for a once-per-word allocation to count.
	const cyclesPerRun = 50
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < cyclesPerRun; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d busy assembly cycles allocate %v times", cyclesPerRun, allocs)
	}
	if received-before < 100 {
		t.Fatalf("only %d words crossed the circuit while measuring", received-before)
	}
}
