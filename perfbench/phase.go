package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/noc"
)

// phase is one timed stretch of a run. Its units are the cells of a
// single-process workload, or the two-process cache round of
// sweep-cached; each unit is timed every time it runs, and the phase
// reports per-unit medians summed over one round.
type phase struct {
	units   [][]sample
	roundNC uint64  // node-cycles of one round
	rounds  float64 // rounds executed, fractional when the last was cut
	sha256  string  // of the workload's output in the first round

	// Per-layer figures, totalled over the phase.
	encodeS     float64
	outputBytes int
	sweepS      float64 // time spent inside noc.Sweep calls
	workers     int
	jobs        []float64
	gc          gcState
	counters    noc.CacheCounters // of the last round
	cacheBytes  int64             // cache directory after the last round
	hitSPerCell float64
	registry    []obs.Sample
	childRSSMB  float64 // peak resident set of the pass processes
}

// sumMedians is the median of each unit's undisturbed samples of a field,
// summed: what one round costs.
func (p *phase) sumMedians(field func(sample) float64) float64 {
	var total float64
	for _, u := range p.units {
		u = undisturbed(u)
		xs := make([]float64, len(u))
		for i, s := range u {
			xs[i] = field(s)
		}
		total += median(xs)
	}
	return total
}

// disturbed counts the samples sumMedians leaves out.
func (p *phase) disturbed() int {
	n := 0
	for _, u := range p.units {
		n += len(u) - len(undisturbed(u))
	}
	return n
}

// rate is node-cycles of one round per second of the given time field.
func (p *phase) rate(field func(sample) float64) float64 {
	t := p.sumMedians(field)
	if t <= 0 {
		return 0
	}
	return float64(p.roundNC) / t
}

func (p *phase) allocMB() float64 {
	return p.sumMedians(func(s sample) float64 { return float64(s.alloc) }) / mib
}

// cellPhase runs the cells one sweep call each, in round-robin order,
// until d has passed and every cell has run at least once.
func cellPhase(ctx context.Context, w workload, cells []cell, d time.Duration,
	tr *tracer, parent int, chk *checks) (*phase, error) {
	p := &phase{units: make([][]sample, len(cells)), roundNC: roundNodeCycles(cells), workers: w.workers}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	passSpan := tr.begin("pass", parent)
	out := sha256.New()
	g0 := readGC()
	start := time.Now()
	deadline := start.Add(d)
	n := 0
	for ; n < len(cells) || time.Now().Before(deadline); n++ {
		i := n % len(cells)
		var sink hash.Hash
		if n < len(cells) {
			sink = out
		}
		m := startMeter()
		r, err := runSweep(ctx, cells[i:i+1], []int{i},
			sweepOpts{workers: w.workers, tr: tr, parent: passSpan, metrics: reg, sink: sink})
		s := m.stop()
		if err != nil {
			return nil, err
		}
		p.units[i] = append(p.units[i], s)
		chk.run("cell", r)
		p.encodeS += r.EncodeS
		p.outputBytes += r.OutputBytes
		p.sweepS += r.SweepS
	}
	p.gc = readGC().sub(g0)
	tr.end(passSpan)
	p.rounds = float64(n) / float64(len(cells))
	p.sha256 = hex.EncodeToString(out.Sum(nil))
	if tr != nil {
		p.jobs = tr.durations("job", start.UnixNano())
		p.registry = reg.Snapshot()
	}
	return p, nil
}

// passCells lists the cells a sweep-cached pass runs: pass 1 (and the
// replay pass 3) every other cell, pass 2 all of them.
func passCells(all []cell, pass int) ([]cell, []int) {
	var cs []cell
	var idx []int
	for i, c := range all {
		if pass == 2 || i%2 == 0 {
			cs = append(cs, c)
			idx = append(idx, i)
		}
	}
	return cs, idx
}

// cacheRoundNodeCycles counts a cache round's node-cycles: pass 1's cells
// and then all of them, hits included.
func cacheRoundNodeCycles(all []cell) uint64 {
	half, _ := passCells(all, 1)
	return roundNodeCycles(half) + roundNodeCycles(all)
}

// passReport is what a sweep-cached pass process prints.
type passReport struct {
	Run        sweepRun          `json:"run"`
	AllocBytes uint64            `json:"alloc_bytes"`
	Counters   noc.CacheCounters `json:"counters"`
	GCCycles   uint32            `json:"gc_cycles"`
	GCCPUS     float64           `json:"gc_cpu_s"`
	CPUS       float64           `json:"cpu_s"` // as the Go runtime counts it
	RSSMB      float64           `json:"rss_mb"`
	Spans      []span            `json:"spans,omitempty"`
	Registry   []obs.Sample      `json:"registry,omitempty"`
}

// runPassChild is the body of a pass process: one sweep over the pass's
// cells against the cache directory, reported as JSON on stdout.
func runPassChild(ctx context.Context, w workload, seed uint64, pass int, dir string, traced bool) error {
	alloc0 := totalAlloc()
	g0 := readGC()
	cells, idx := passCells(w.cells(seed), pass)
	var tr *tracer
	var reg *obs.Registry
	if traced {
		tr = newTracer("pass")
		reg = obs.NewRegistry()
	}
	span := tr.begin(fmt.Sprintf("pass%d", pass), -1)
	r, err := runSweep(ctx, cells, idx, sweepOpts{workers: w.workers, cacheDir: dir, tr: tr, parent: span, metrics: reg})
	tr.end(span)
	if err != nil {
		return err
	}
	cache, err := noc.OpenCache(dir)
	if err != nil {
		return err
	}
	g := readGC().sub(g0)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep := passReport{Run: r, AllocBytes: totalAlloc() - alloc0, Counters: cache.Counters(),
		GCCycles: g.cycles, GCCPUS: g.gcCPU, CPUS: g.total, RSSMB: rss, Registry: reg.Snapshot()}
	if tr != nil {
		rep.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runPass runs one pass in a fresh process, so its cache hits come from
// the directory rather than an in-process store, and measures it.
func runPass(ctx context.Context, w workload, seed uint64, pass int, dir string, traced bool) (passReport, sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return passReport{}, sample{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-trace", trace, "-child-pass", strconv.Itoa(pass), "-cache-dir", dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return passReport{}, sample{}, fmt.Errorf("pass %d: %w", pass, err)
	}
	wall := time.Since(start).Seconds()
	var rep passReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return passReport{}, sample{}, fmt.Errorf("pass %d report: %w", pass, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	s := sample{wall: wall, alloc: rep.AllocBytes}
	if ru != nil {
		s.cpu = rusageCPU(ru)
	}
	return rep, s, nil
}

// cachedPhase runs cache rounds — pass 1 over half the cells into a fresh
// cache directory, then pass 2 over all of them, each in its own process —
// until d has passed and at least one round is done.
func cachedPhase(ctx context.Context, w workload, seed uint64, d time.Duration, tmp string,
	tr *tracer, parent int, chk *checks) (*phase, error) {
	p := &phase{units: make([][]sample, 1), roundNC: cacheRoundNodeCycles(w.cells(seed)), workers: w.workers}
	traced := tr != nil
	phaseSpan := tr.begin("pass", parent)
	defer tr.end(phaseSpan)
	start := time.Now()
	deadline := start.Add(d)
	var gcCPU, cpu float64
	var lastDir string
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if lastDir != "" {
			if err := os.RemoveAll(lastDir); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(tmp, fmt.Sprintf("cache-%d", round))
		lastDir = dir
		roundSpan := tr.begin("round", phaseSpan)
		var s sample
		stat0 := machineCPU()
		p.counters = noc.CacheCounters{}
		for pass := 1; pass <= 2; pass++ {
			rep, ps, err := runPass(ctx, w, seed, pass, dir, traced)
			if err != nil {
				return nil, err
			}
			p.childRSSMB = max(p.childRSSMB, rep.RSSMB)
			s.wall += ps.wall
			s.cpu += ps.cpu
			s.alloc += ps.alloc
			chk.run("cell", rep.Run)
			if pass == 2 && round == 0 {
				p.sha256 = rep.Run.SHA256
			}
			p.encodeS += rep.Run.EncodeS
			p.outputBytes += rep.Run.OutputBytes
			p.sweepS += rep.Run.SweepS
			p.counters = addCounters(p.counters, rep.Counters)
			p.gc.cycles += rep.GCCycles
			gcCPU += rep.GCCPUS
			cpu += rep.CPUS
			if traced {
				tr.graft(rep.Spans, roundSpan)
				p.registry = rep.Registry
			}
		}
		tr.end(roundSpan)
		s.steal = stealShare(stat0, machineCPU())
		p.units[0] = append(p.units[0], s)
		p.rounds++
	}
	p.gc.gcCPU, p.gc.total = gcCPU, cpu
	if traced {
		p.jobs = tr.durations("job", start.UnixNano())
		n, err := dirBytes(lastDir)
		if err != nil {
			return nil, err
		}
		p.cacheBytes = n
		// A third fresh process replays pass 1 against the full cache:
		// every cell is a hit served from disk.
		rep, _, err := runPass(ctx, w, seed, 3, lastDir, true)
		if err != nil {
			return nil, err
		}
		chk.run("cell", rep.Run)
		tr.graft(rep.Spans, phaseSpan)
		if len(rep.Run.Cells) > 0 {
			p.hitSPerCell = rep.Run.SweepS / float64(len(rep.Run.Cells))
		}
	}
	return p, os.RemoveAll(lastDir)
}

func addCounters(a, b noc.CacheCounters) noc.CacheCounters {
	return noc.CacheCounters{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Puts: a.Puts + b.Puts,
		WarmHits: a.WarmHits + b.WarmHits, WarmStores: a.WarmStores + b.WarmStores,
	}
}
