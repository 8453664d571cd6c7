package main

import (
	"fmt"
	"time"

	"repro/internal/aethereal"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/stdcell"
	"repro/internal/traffic"
	"repro/noc"
)

// layerStats are the per-layer figures the traced run measures by calling
// each layer directly, once per distinct cell of one round.
type layerStats struct {
	meshBuildS, meshRunS    float64
	meshNodeCycles          uint64
	allocProbes, allocRejs  int64
	evals, skips, polls     uint64
	ffCycles, simCycles     uint64
	portFlowsS              float64
	circuitS, packetS, tdmS float64
	circuitCyc, packetCyc   uint64
	tdmCyc                  uint64
	coreBusyNs, coreIdleNs  float64
}

// defaultSimKernel is the simulation kernel the façade runs by default,
// found by name so the benchmark names no kernel of its own.
func defaultSimKernel() (sim.Kernel, error) {
	k, err := noc.ParseKernel("")
	if err != nil {
		return 0, err
	}
	for s := sim.Kernel(0); s < 64; s++ {
		if s.String() == string(k) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("no simulation kernel is named %q", k)
}

func injection(sc noc.Scenario) (pattern.Injection, error) {
	in := noc.DefaultInjection()
	if sc.Injection != nil {
		in = *sc.Injection
	}
	proc, err := pattern.ParseProcess(in.Process)
	if err != nil {
		return pattern.Injection{}, err
	}
	return pattern.Injection{Proc: proc, Rate: in.Rate, Burstiness: in.Burstiness}, nil
}

// measureLayers calls mesh.RunPattern, pattern.PortFlows, the traffic
// runners and a core assembly directly, each call inside a span.
func measureLayers(cells []cell, tr *tracer, parent int) (layerStats, error) {
	var ls layerStats
	kernel, err := defaultSimKernel()
	if err != nil {
		return ls, err
	}
	lib := stdcell.Default013()
	for _, c := range cells {
		sc := c.Scenario
		switch {
		case sc.IsPattern() && c.Fabric == noc.KindCircuit:
			err = ls.meshCell(sc, kernel, lib, tr, parent)
		case sc.IsPattern():
			err = ls.projectedCell(c.Fabric, sc, kernel, lib, tr, parent)
		default:
			err = ls.routerCell(c.Fabric, sc, kernel, lib, tr, parent)
		}
		if err != nil {
			return ls, fmt.Errorf("cell %s on %s: %w", sc.Name, c.Fabric, err)
		}
	}
	span := tr.begin("core.Assembly", parent)
	ls.coreBusyNs, ls.coreIdleNs, err = assemblyCycleNs()
	tr.end(span)
	return ls, err
}

// meshCell runs the circuit mesh at one cycle (building it is most of
// that) and at full length, reading the kernel's counters afterwards.
func (ls *layerStats) meshCell(sc noc.Scenario, kernel sim.Kernel, lib stdcell.Lib, tr *tracer, parent int) error {
	sp, err := pattern.ParseSpatial(sc.Pattern)
	if err != nil {
		return err
	}
	inj, err := injection(sc)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var world *sim.World
	cfg := mesh.PatternConfig{
		W: sc.MeshWidth, H: sc.MeshHeight, Cycles: 1, FreqMHz: 25, Lib: lib,
		Spatial: sp, Injection: inj, FlipProb: 0.5, Seed: sc.Seed,
		WordsPerFlow: sc.WordsPerStream, Kernel: kernel,
	}
	span := tr.begin("mesh.RunPattern/1cycle", parent)
	t := time.Now()
	_, err = mesh.RunPattern(cfg)
	build := time.Since(t).Seconds()
	tr.end(span)
	if err != nil {
		return err
	}
	cfg.Cycles = sc.Cycles
	cfg.Obs = obs.Hooks{Metrics: reg}
	cfg.Observe = func(w *sim.World) { world = w }
	span = tr.begin("mesh.RunPattern", parent)
	t = time.Now()
	_, err = mesh.RunPattern(cfg)
	full := time.Since(t).Seconds()
	tr.end(span)
	if err != nil {
		return err
	}
	ls.meshBuildS += build
	ls.meshRunS += max(full-build, 0)
	ls.meshNodeCycles += uint64(sc.MeshWidth*sc.MeshHeight) * uint64(sc.Cycles)
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "mesh.alloc.probes":
			ls.allocProbes += s.Value
		case "mesh.alloc.rejections":
			ls.allocRejs += s.Value
		}
	}
	if world != nil {
		_, ff := world.FastForwards()
		ls.evals += world.Evals()
		ls.skips += world.Skips()
		ls.polls += world.Polls()
		ls.ffCycles += ff
		ls.simCycles += world.Cycle()
	}
	return nil
}

// projectedCell projects the pattern onto the mesh-centre router and runs
// the packet or TDM runner on the precomputed flows.
func (ls *layerStats) projectedCell(kind noc.Kind, sc noc.Scenario, kernel sim.Kernel, lib stdcell.Lib, tr *tracer, parent int) error {
	sp, err := pattern.ParseSpatial(sc.Pattern)
	if err != nil {
		return err
	}
	inj, err := injection(sc)
	if err != nil {
		return err
	}
	span := tr.begin("pattern.PortFlows", parent)
	t := time.Now()
	flows := pattern.PortFlows(sp, sc.MeshWidth, sc.MeshHeight, pattern.HotspotNode(sc.MeshWidth, sc.MeshHeight), sc.Seed)
	ls.portFlowsS += time.Since(t).Seconds()
	tr.end(span)
	rc := traffic.RunConfig{Cycles: sc.Cycles, FreqMHz: 25, Lib: lib, Seed: sc.Seed, Kernel: kernel,
		WordsPerStream: sc.WordsPerStream}
	switch kind {
	case noc.KindPacket:
		span = tr.begin("traffic.RunPacketPattern", parent)
		t = time.Now()
		_, err = traffic.RunPacketPattern(flows, inj, 0.5, rc)
		ls.packetS += time.Since(t).Seconds()
		ls.packetCyc += uint64(sc.Cycles)
	case noc.KindTDM:
		span = tr.begin("traffic.RunTDMPattern", parent)
		t = time.Now()
		_, err = traffic.RunTDMPattern(aethereal.DefaultParams(), flows, inj, 0.5, rc)
		ls.tdmS += time.Since(t).Seconds()
		ls.tdmCyc += uint64(sc.Cycles)
	}
	tr.end(span)
	return err
}

// routerCell runs one of the paper's single-router scenarios through the
// circuit or packet runner. The TDM fabric has no runner in the traffic
// package for these scenarios, so its cells are skipped here.
func (ls *layerStats) routerCell(kind noc.Kind, sc noc.Scenario, kernel sim.Kernel, lib stdcell.Lib, tr *tracer, parent int) error {
	ts := traffic.Scenario{Name: sc.Name}
	for _, st := range sc.Streams {
		ts.Streams = append(ts.Streams, traffic.Stream{ID: st.ID, In: core.Port(st.In), Out: core.Port(st.Out)})
	}
	pat := traffic.Pattern{FlipProb: sc.Data.FlipProb, Load: sc.Data.Load}
	rc := traffic.RunConfig{Cycles: sc.Cycles, FreqMHz: 25, Lib: lib, Seed: sc.Seed, Kernel: kernel}
	var err error
	switch kind {
	case noc.KindCircuit:
		span := tr.begin("traffic.RunCircuit", parent)
		t := time.Now()
		_, err = traffic.RunCircuit(ts, pat, rc)
		ls.circuitS += time.Since(t).Seconds()
		ls.circuitCyc += uint64(sc.Cycles)
		tr.end(span)
	case noc.KindPacket:
		span := tr.begin("traffic.RunPacket", parent)
		t := time.Now()
		_, err = traffic.RunPacket(ts, pat, rc)
		ls.packetS += time.Since(t).Seconds()
		ls.packetCyc += uint64(sc.Cycles)
		tr.end(span)
	}
	return err
}

// assemblyCycleNs times Eval+Commit of a single router assembly: busy
// with a circuit from the tile to the east port fed every cycle it is
// ready, and idle with nothing configured. Each is the median of five
// 100k-cycle loops.
func assemblyCycleNs() (busy, idle float64, err error) {
	const cycles = 100_000
	loop := func(configure bool) (float64, error) {
		var ns []float64
		for rep := 0; rep < 5; rep++ {
			a := core.NewAssembly(core.DefaultParams(), core.DefaultAssemblyOptions())
			if configure {
				if err := a.EstablishLocal(core.Circuit{
					In:  core.LaneID{Port: core.Tile, Lane: 0},
					Out: core.LaneID{Port: core.East, Lane: 0},
				}); err != nil {
					return 0, err
				}
			}
			n := uint16(0)
			t := time.Now()
			for i := 0; i < cycles; i++ {
				if configure && a.Tx[0].Ready() {
					a.Tx[0].Push(core.DataWord(n))
					n++
				}
				a.Eval()
				a.Commit()
			}
			ns = append(ns, float64(time.Since(t).Nanoseconds())/cycles)
		}
		return median(ns), nil
	}
	if busy, err = loop(true); err != nil {
		return 0, 0, err
	}
	idle, err = loop(false)
	return busy, idle, err
}
