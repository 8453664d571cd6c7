// Command perfbench is the repository's benchmark. It runs one workload
// of the NoC simulator through the public noc API for a fixed time, checks
// the outputs, and prints the metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload mesh-dense --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every call into the program and prints the
// per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/obs"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run, so a reader can explain a noisy one.
type record struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Seconds    int        `json:"seconds"`
	Traced     bool       `json:"traced"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	StealShare float64    `json:"steal_share"`
	Rounds     float64    `json:"rounds"`
	Disturbed  int        `json:"disturbed_samples"` // left out for steal above maxSteal
	OutputSHA  string     `json:"output_sha256"`
	Problems   []string   `json:"problems,omitempty"`
	Spans      []spanStat `json:"spans,omitempty"`
	TraceFile  string     `json:"trace_file,omitempty"`
	// Registry is the program's own metrics registry over the traced
	// half (of the last pass process for sweep-cached).
	Registry []obs.Sample `json:"registry,omitempty"`
}

func main() {
	wname := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 15, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under .bench_build there")
	childPass := flag.Int("child-pass", 0, "internal: run one sweep-cached pass (1, 2 or 3)")
	cacheDir := flag.String("cache-dir", "", "internal: cache directory of a pass")
	flag.Parse()
	if err := mainErr(*wname, *seed, *seconds, *trace, *root, *childPass, *cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(wname string, seed uint64, seconds, trace int, root string, childPass int, cacheDir string) error {
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	ctx := context.Background()
	if childPass != 0 {
		return runPassChild(ctx, w, seed, childPass, cacheDir, trace == 1)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	res, rec, err := run(ctx, w, seed, seconds, trace == 1, root)
	if err != nil {
		return err
	}
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", recLine, resLine)
	return nil
}

func run(ctx context.Context, w workload, seed uint64, seconds int, traced bool, root string) (result, record, error) {
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit()}
	cpu0, statErr := readCPUTimes("/proc/stat")
	work := filepath.Join(root, ".bench_build", "perfbench")
	tmp := filepath.Join(work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return result{}, rec, err
	}
	defer os.RemoveAll(tmp)

	cells := w.cells(seed)
	chk := newChecks()
	if err := chk.oracle(ctx, w, cells); err != nil {
		return result{}, rec, err
	}
	d := time.Duration(seconds) * time.Second
	timed := func(d time.Duration, tr *tracer, parent int) (*phase, error) {
		if w.cached {
			return cachedPhase(ctx, w, seed, d, tmp, tr, parent, chk)
		}
		return cellPhase(ctx, w, cells, d, tr, parent, chk)
	}
	metrics := map[string]metric{}
	if !traced {
		setup, err := setupSeconds(ctx, w, cells, chk)
		if err != nil {
			return result{}, rec, err
		}
		p, err := timed(d, nil, -1)
		if err != nil {
			return result{}, rec, err
		}
		rec.Rounds, rec.OutputSHA, rec.Disturbed = p.rounds, p.sha256, p.disturbed()
		metrics["node_cycles_per_s"] = metric{p.rate(func(s sample) float64 { return s.wall }), "1/s"}
		metrics["node_cycles_per_cpu_s"] = metric{p.rate(func(s sample) float64 { return s.cpu }), "1/s"}
		metrics["setup_s"] = metric{setup, "s"}
		metrics["alloc_mb"] = metric{p.allocMB(), "MB"}
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, rec, err
		}
		metrics["max_rss_mb"] = metric{max(rss, p.childRSSMB), "MB"}
	} else {
		tr := newTracer(fmt.Sprintf("%s/%d", w.name, seed))
		top := tr.begin("workload:"+w.name, -1)
		// The same timed phase untraced, then traced: the difference is
		// the cost of tracing.
		span := tr.begin("untraced", top)
		plain, err := timed(d/2, nil, top)
		tr.end(span)
		if err != nil {
			return result{}, rec, err
		}
		p, err := timed(d/2, tr, top)
		if err != nil {
			return result{}, rec, err
		}
		direct := tr.begin("direct", top)
		ls, err := measureLayers(cells, tr, direct)
		tr.end(direct)
		tr.end(top)
		if err != nil {
			return result{}, rec, err
		}
		rec.Rounds, rec.OutputSHA = p.rounds, p.sha256
		layerMetrics(metrics, plain, p, ls)
		rec.TraceFile = filepath.Join(work, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		if err := tr.write(rec.TraceFile); err != nil {
			return result{}, rec, err
		}
		rec.Spans = summarize(tr.spans)
		rec.Registry = p.registry
	}
	if statErr == nil {
		if cpu1, err := readCPUTimes("/proc/stat"); err == nil {
			rec.StealShare = stealShare(cpu0, cpu1)
		}
	}
	if traced {
		metrics["failed_frac"] = metric{float64(chk.failed) / float64(max(chk.attempted, 1)), "fraction"}
	}
	rec.Problems = chk.problems
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}, rec, nil
}

// layerMetrics fills the per-layer metrics of a traced run from the
// untraced and traced halves of the timed phase and the direct calls.
// Counts and times "per round" are for one pass over the workload's
// cells; a layer the workload does not reach reads 0.
func layerMetrics(m map[string]metric, plain, p *phase, ls layerStats) {
	perRound := func(x float64) float64 { return x / max(p.rounds, 1e-9) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := median(p.jobs)
	p90, _ := percentile(p.jobs, 90)
	var busy float64
	for _, j := range p.jobs {
		busy += j
	}
	m["noc.jobs"] = metric{float64(len(p.jobs)), "count"}
	m["noc.job_s_p50"] = metric{p50, "s"}
	m["noc.job_s_p90"] = metric{p90, "s"}
	m["noc.busy_frac"] = metric{ratio(busy, float64(p.workers)*p.sweepS), "fraction"}
	m["noc.encode_s"] = metric{perRound(p.encodeS), "s"}
	m["noc.output_bytes"] = metric{perRound(float64(p.outputBytes)), "bytes"}

	c := p.counters
	m["cache.hits"] = metric{float64(c.Hits), "count"}
	m["cache.misses"] = metric{float64(c.Misses), "count"}
	m["cache.puts"] = metric{float64(c.Puts), "count"}
	m["cache.warm_hits"] = metric{float64(c.WarmHits), "count"}
	m["cache.warm_stores"] = metric{float64(c.WarmStores), "count"}
	m["cache.dir_mb"] = metric{float64(p.cacheBytes) / mib, "MB"}
	m["cache.hit_s_per_cell"] = metric{p.hitSPerCell, "s"}

	m["pattern.portflows_s"] = metric{ls.portFlowsS, "s"}
	m["mesh.build_s"] = metric{ls.meshBuildS, "s"}
	m["mesh.run_ns_per_node_cycle"] = metric{ratio(ls.meshRunS*1e9, float64(ls.meshNodeCycles)), "ns"}
	m["mesh.alloc.probes"] = metric{float64(ls.allocProbes), "count"}
	m["mesh.alloc.rejections"] = metric{float64(ls.allocRejs), "count"}

	m["sim.evals_per_node_cycle"] = metric{ratio(float64(ls.evals), float64(ls.meshNodeCycles)), "ratio"}
	m["sim.polls_per_node_cycle"] = metric{ratio(float64(ls.polls), float64(ls.meshNodeCycles)), "ratio"}
	m["sim.ff_cycle_frac"] = metric{ratio(float64(ls.ffCycles), float64(ls.simCycles)), "fraction"}
	m["sim.parked_frac"] = metric{ratio(float64(ls.skips), float64(ls.evals+ls.skips)), "fraction"}
	m["sim.ns_per_eval"] = metric{ratio(ls.meshRunS*1e9, float64(ls.evals)), "ns"}

	m["core.cycle_ns_busy"] = metric{ls.coreBusyNs, "ns"}
	m["core.cycle_ns_idle"] = metric{ls.coreIdleNs, "ns"}
	m["traffic.circuit_ns_per_cycle"] = metric{ratio(ls.circuitS*1e9, float64(ls.circuitCyc)), "ns"}
	m["traffic.packet_ns_per_cycle"] = metric{ratio(ls.packetS*1e9, float64(ls.packetCyc)), "ns"}
	m["traffic.tdm_ns_per_cycle"] = metric{ratio(ls.tdmS*1e9, float64(ls.tdmCyc)), "ns"}

	m["gc.cycles"] = metric{perRound(float64(p.gc.cycles)), "count"}
	m["gc.cpu_frac"] = metric{ratio(p.gc.gcCPU, p.gc.total), "fraction"}

	plainRate := plain.rate(func(s sample) float64 { return s.wall })
	tracedRate := p.rate(func(s sample) float64 { return s.wall })
	m["trace.plain_node_cycles_per_s"] = metric{plainRate, "1/s"}
	m["trace.node_cycles_per_s"] = metric{tracedRate, "1/s"}
	m["trace.overhead_frac"] = metric{ratio(plainRate-tracedRate, plainRate), "fraction"}
}

// setupSeconds is the fixed cost every cell pays: the workload's cells cut
// to one simulated cycle, run without the cache. The cut cells are run at
// least three times and until two seconds have passed (at most 100
// times), so a cheap set-up is sampled often; the median is taken per
// cell for the single-process workloads, for the whole sweep for
// sweep-cached, and summed.
func setupSeconds(ctx context.Context, w workload, cells []cell, chk *checks) (float64, error) {
	cut := cutTo(cells, 1)
	idx := make([]int, len(cut))
	for i := range idx {
		idx[i] = i
	}
	units := [][]int{idx}
	if !w.cached {
		units = make([][]int, len(cut))
		for i := range cut {
			units[i] = []int{i}
		}
	}
	times := make([][]float64, len(units))
	start := time.Now()
	for rep := 0; rep < 3 || (rep < 100 && time.Since(start) < 2*time.Second); rep++ {
		for u, ids := range units {
			cs := make([]cell, len(ids))
			for j, i := range ids {
				cs[j] = cut[i]
			}
			t := time.Now()
			r, err := runSweep(ctx, cs, ids, sweepOpts{workers: w.workers, parent: -1})
			times[u] = append(times[u], time.Since(t).Seconds())
			if err != nil {
				return 0, err
			}
			chk.run("setup", r)
		}
	}
	var total float64
	for _, ts := range times {
		total += median(ts)
	}
	return total, nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
