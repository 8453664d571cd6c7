package noc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// wordBits is the tile-interface word size all throughput figures use.
const wordBits = 16

// circuitFabric implements Fabric with the paper's lane-division
// circuit-switched router.
type circuitFabric struct {
	cfg config
}

// Kind implements Fabric.
func (f *circuitFabric) Kind() Kind { return KindCircuit }

// String implements Fabric.
func (f *circuitFabric) String() string {
	gated := ""
	if f.cfg.gated {
		gated = ", clock gated"
	}
	p := f.cfg.resolvedCoreParams()
	return fmt.Sprintf("circuit-switched (%d lanes x %d bit%s)",
		p.LanesPerPort, p.LaneWidth, gated)
}

// Validate implements Fabric.
func (f *circuitFabric) Validate() error { return f.cfg.validate(KindCircuit) }

// setObs injects observability hooks (sweep engine): an injected
// tracer/registry is owned by the injector, so Run leaves export and
// snapshotting to it.
func (f *circuitFabric) setObs(h obs.Hooks) { f.cfg.obs = h }

// Run implements Fabric: single-router scenarios go through the traffic
// runner of Figures 9/10; workload scenarios map applications onto a
// mesh via the CCN. With caching enabled (WithCache), a single run is
// served from the content-addressed cache when its key matches.
func (f *circuitFabric) Run(sc Scenario) (*Result, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := f.cfg
	fin := cfg.beginObs()
	res, err := runFabric(KindCircuit, cfg, sc, f.run)
	if err != nil {
		return nil, err
	}
	return res, fin(res)
}

// run executes one non-replicated, defaulted, validated scenario.
func (f *circuitFabric) run(cfg config, sc Scenario) (*Result, error) {
	if sc.IsPattern() {
		return runCircuitPattern(cfg, sc)
	}
	if sc.IsWorkload() {
		return runCircuitWorkload(cfg, sc)
	}
	var ks *KernelStats
	rc := traffic.RunConfig{
		Cycles: sc.Cycles, FreqMHz: sc.FreqMHz,
		Lib: cfg.mustLib(), Gated: cfg.gated,
		Params: cfg.coreParams(), Seed: sc.Seed,
		Kernel:         cfg.simKernel(),
		SimWorkers:     cfg.parallelism,
		WordsPerStream: sc.WordsPerStream,
		Observe:        cfg.observeKernel(&ks),
		Obs:            cfg.obs,
	}
	pat := traffic.Pattern{FlipProb: sc.Data.FlipProb, Load: sc.Data.Load}
	tr, err := traffic.RunCircuit(sc.trafficScenario(), pat, rc)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fabric:         KindCircuit,
		Scenario:       sc.Name,
		FreqMHz:        sc.FreqMHz,
		Cycles:         sc.Cycles,
		WordsSent:      tr.WordsSent,
		WordsDelivered: tr.WordsDelivered,
		ThroughputMbps: stats.Rate(tr.WordsDelivered, wordBits, uint64(sc.Cycles), sc.FreqMHz),
		Power:          powerFrom(tr.Power),
		PerComponent:   attributionComponents(tr.Attribution, tr.Power.StaticUW),
		Kernel:         ks,
	}
	if n := cfg.latencySamples(); n > 0 && len(sc.Streams) > 0 {
		lr, err := traffic.MeasureCircuitLatency(cfg.resolvedCoreParams(), sc.Data.Load, n,
			cfg.worldOpts()...)
		if err != nil {
			return nil, err
		}
		res.Latency = latencyFrom(lr.Cycles)
	}
	return res, nil
}
