// Command nocbench regenerates the paper's tables and figures plus the
// reproduction's ablation experiments, as text or as structured JSON,
// and runs parameter sweeps across all CPU cores.
//
// Usage:
//
//	nocbench -list                 list all experiments
//	nocbench -run fig9             run one experiment
//	nocbench -run table4,fig10     run several
//	nocbench -run fig9 -json       emit the typed result as JSON
//	nocbench                       run everything
//	nocbench -parallel             run everything on all cores
//	nocbench -out results.txt      also write to a file
//	nocbench -sweep spec.json      run a parallel sweep from a spec file
//	nocbench -sweep spec.json -csv same, as CSV
//	nocbench -sweep spec.json -workers 4
//	nocbench -sweep spec.json -kernel naive
//	nocbench -sweep spec.json -kernel active -simworkers 8
//	nocbench -sweep spec.json -reps 8
//	nocbench -pattern hotspot:0.7 -inject poisson:0.05 -mesh 16
//	nocbench -pattern uniform -reps 8 -warmup auto
//	nocbench -run fig9 -cpuprofile cpu.pprof
//	nocbench -sweep spec.json -trace trace.json -progress
//	nocbench -pattern uniform -trace trace.json -metrics
//	nocbench -vcd quicklook.vcd
//	nocbench -sweep spec.json -http localhost:6060
//
// A sweep spec is a JSON-encoded noc.SweepSpec: a set of fabrics crossed
// with an explicit scenario list or a cartesian parameter grid. The
// sweep engine fans the cells across a bounded worker pool and emits
// them in deterministic order, so the output is byte-identical for any
// worker count.
//
// -pattern runs a synthetic traffic pattern on all three fabrics:
// a spatial pattern name ("uniform", "transpose", "bitcomp", "bitrev",
// "hotspot[:frac]", "neighbour", "perm") optionally combined with
// -inject "process:rate[:burstiness]" ("cbr", "bernoulli", "poisson",
// "onoff") and -mesh N for an N×N mesh (default 8). The circuit fabric
// simulates the whole mesh; the packet and TDM fabrics are driven with
// the pattern's projection onto the mesh-centre router. Output is one
// JSON result per fabric.
//
// -reps runs every cell of a -sweep, or every fabric of a -pattern run,
// that many times with independent replication seeds and attaches
// mean/min/max/CI95 aggregates to each result (the "replication" JSON
// object, or the *_mean/*_ci95 CSV columns). -warmup truncates a
// -pattern run's measurement window: an explicit cycle count, or "auto"
// for MSER steady-state detection.
//
// -kernel selects the simulation kernel of a -sweep or -pattern run:
// "event" (the default: fully quiescent windows are fast-forwarded),
// "gated" (activity tracking only), "naive" (evaluate everything) or
// "active" (explicit active/parked component lists with a sharded
// parallel Eval sweep; -simworkers N bounds the goroutine pool, 0
// means GOMAXPROCS). Results are byte-identical under all of them —
// the CI equivalence job runs the same sweep under each and
// byte-compares, including the active kernel at different worker
// counts. The experiments (-run/-parallel) always use the default, so
// the flags are rejected without -sweep or -pattern rather than
// silently ignored.
//
// Observability (none of it changes a byte of stdout results):
//
// -trace FILE writes the run's structured simulation events —
// cycle-timestamped kernel scheduling, flow setup/teardown, word
// injection and delivery, cache traffic — as Chrome trace-event JSON.
// Open the file in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing; each sweep cell renders as one process row, each
// event track as one thread. With -pattern the three fabrics write
// separate files ("t.json" → "t.circuit.json" etc.).
//
// -progress streams a live heartbeat to stderr during a -sweep: cells
// and jobs completed, cache hits, errors, simulated-cycle rate, the
// worker pool's busy fraction and an ETA. All wall-clock arithmetic
// happens in this command; the sweep engine reports only deterministic
// counts.
//
// -metrics dumps the metrics registry (kernel scheduling gauges,
// lane-allocator counters, cache traffic) to stderr after the run.
//
// -vcd FILE writes the single-router quicklook capture as a Value
// Change Dump for GTKWave and friends, with the ASCII render on stdout.
//
// -http ADDR serves expvar (/debug/vars, including live sweep counters)
// and pprof (/debug/pprof) while the run executes.
//
// -cpuprofile / -memprofile write pprof profiles covering the whole run
// (flushed on errors and Ctrl-C too), so kernel work is measurable
// without editing code:
//
//	go tool pprof cpu.pprof
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/noc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
}

// run owns every deferred cleanup (profile flushes, file closes), so any
// exit path — error, Ctrl-C cancellation, success — leaves complete,
// loadable pprof files behind.
func run() (err error) {
	list := flag.Bool("list", false, "list available experiments")
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	out := flag.String("out", "", "also write output to this file")
	jsonOut := flag.Bool("json", false, "emit typed experiment results as JSON instead of text")
	sweepFile := flag.String("sweep", "", "run a parallel sweep from this JSON spec file")
	workers := flag.Int("workers", 0, "worker pool size for -sweep and -parallel (default GOMAXPROCS)")
	parallel := flag.Bool("parallel", false, "measure experiments on all cores (text output unchanged)")
	csvOut := flag.Bool("csv", false, "with -sweep: emit CSV instead of JSON")
	kernel := flag.String("kernel", "", `with -sweep/-pattern: simulation kernel, "event" (default), "gated", "naive" or "active"`)
	simWorkers := flag.Int("simworkers", 0, `with -sweep/-pattern: active-kernel Eval shard bound (default GOMAXPROCS)`)
	patternName := flag.String("pattern", "", `run a synthetic traffic pattern on all three fabrics (e.g. "uniform", "hotspot:0.7")`)
	inject := flag.String("inject", "", `with -pattern: injection process as "process:rate[:burstiness]" (e.g. "poisson:0.05", "onoff:0.1:8")`)
	meshSize := flag.Int("mesh", 0, "with -pattern: mesh size N for an NxN mesh (default 8)")
	cycles := flag.Int("cycles", 0, "with -pattern: simulated cycles (default 5000)")
	reps := flag.Int("reps", 0, "with -sweep/-pattern: replications per cell, aggregated as mean/CI95 (default single run)")
	warmup := flag.String("warmup", "", `with -pattern: warm-up truncation, a cycle count or "auto" (MSER steady-state detection)`)
	cacheDir := flag.String("cache", "", "with -sweep: serve cells from a content-addressed result cache in this directory")
	traceFile := flag.String("trace", "", `with -sweep/-pattern: write the run's structured events as Chrome trace-event JSON to this file (open in Perfetto; -pattern writes one file per fabric with the kind inserted before the extension)`)
	progress := flag.Bool("progress", false, "with -sweep: stream a live progress heartbeat (cells, jobs, cache hits, cycle rate, worker busy fraction, ETA) to stderr")
	metricsOut := flag.Bool("metrics", false, "with -sweep/-pattern: dump the metrics registry snapshot to stderr after the run")
	vcdFile := flag.String("vcd", "", "write the single-router quicklook capture (trace-recorder probes) as a VCD waveform to this file and its ASCII render to stdout")
	httpAddr := flag.String("http", "", `serve expvar (/debug/vars) and pprof (/debug/pprof) on this address for the duration of the run (e.g. "localhost:6060")`)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if _, kerr := noc.ParseKernel(*kernel); kerr != nil {
		return kerr
	}
	if *kernel != "" && *sweepFile == "" && *patternName == "" {
		return fmt.Errorf("-kernel only applies to -sweep and -pattern runs (experiments always use the default)")
	}
	if *simWorkers < 0 {
		return fmt.Errorf("-simworkers must be non-negative, got %d", *simWorkers)
	}
	if *simWorkers != 0 && *sweepFile == "" && *patternName == "" {
		return fmt.Errorf("-simworkers only applies to -sweep and -pattern runs")
	}
	if (*inject != "" || *meshSize != 0 || *cycles != 0) && *patternName == "" {
		return fmt.Errorf("-inject, -mesh and -cycles only apply to -pattern runs")
	}
	if *reps < 0 {
		return fmt.Errorf("-reps must be non-negative, got %d", *reps)
	}
	if *reps != 0 && *sweepFile == "" && *patternName == "" {
		return fmt.Errorf("-reps only applies to -sweep and -pattern runs")
	}
	if *warmup != "" && *patternName == "" {
		return fmt.Errorf("-warmup only applies to -pattern runs")
	}
	if *cacheDir != "" && *sweepFile == "" {
		return fmt.Errorf("-cache only applies to -sweep runs")
	}
	if *traceFile != "" && *sweepFile == "" && *patternName == "" {
		return fmt.Errorf("-trace only applies to -sweep and -pattern runs")
	}
	if *progress && *sweepFile == "" {
		return fmt.Errorf("-progress only applies to -sweep runs")
	}
	if *metricsOut && *sweepFile == "" && *patternName == "" {
		return fmt.Errorf("-metrics only applies to -sweep and -pattern runs")
	}
	if *vcdFile != "" && (*sweepFile != "" || *patternName != "") {
		return fmt.Errorf("-vcd is a standalone single-router capture; it does not combine with -sweep or -pattern")
	}

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			werr := writeHeapProfile(*memProfile)
			if err == nil {
				err = werr
			}
		}()
	}

	if *list {
		for _, e := range noc.Experiments() {
			fmt.Printf("%-10s %-55s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *httpAddr != "" {
		// expvar and net/http/pprof register on the default mux at
		// import; progress expvars are published by runSweep.
		ln, lerr := net.Listen("tcp", *httpAddr)
		if lerr != nil {
			return lerr
		}
		defer ln.Close()
		srv := &http.Server{}
		defer srv.Close()
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "nocbench: serving http://%s/debug/vars and /debug/pprof\n", ln.Addr())
	}

	if *vcdFile != "" {
		return writeQuicklookVCD(w, *vcdFile)
	}
	if *sweepFile != "" {
		return runSweep(w, *sweepFile, sweepFlags{
			workers: *workers, simWorkers: *simWorkers, reps: *reps,
			csv: *csvOut, kernel: *kernel, cacheDir: *cacheDir,
			traceFile: *traceFile, progress: *progress, metrics: *metricsOut,
			expvars: *httpAddr != "",
		})
	}
	if *patternName != "" {
		return runPattern(w, *patternName, *inject, *meshSize, *cycles, *kernel,
			*simWorkers, *reps, *warmup, *traceFile, *metricsOut)
	}

	var ids []string
	if *runIDs == "" {
		for _, e := range noc.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	if *jsonOut {
		// Measure everything before emitting, so an unknown id or a
		// failed run never leaves truncated JSON on stdout. With
		// -parallel the measurements run on all cores; the emitted
		// JSON is identical either way.
		jsonWorkers := 1
		if *parallel {
			jsonWorkers = *workers
		}
		parts, jerr := noc.ExperimentsJSON(ids, jsonWorkers)
		if jerr != nil {
			return jerr
		}
		fmt.Fprint(w, "[\n")
		for i, b := range parts {
			if _, werr := w.Write(b); werr != nil {
				return werr
			}
			if i < len(parts)-1 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "]")
		return nil
	}
	if *parallel {
		return noc.RunExperimentsParallel(w, ids, *workers)
	}
	for _, id := range ids {
		if rerr := noc.RunExperiment(w, id); rerr != nil {
			return rerr
		}
	}
	return nil
}

// writeHeapProfile dumps the heap profile after a GC, so allocation
// statistics are current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// writeQuicklookVCD runs the single-router trace-recorder quicklook (a
// configuration command establishing Tile.0 → East.0 followed by one
// word serializing across the crossbar), writes the capture as a VCD
// file any waveform viewer opens, and renders the ASCII timing diagram
// to w.
func writeQuicklookVCD(w io.Writer, path string) error {
	wf, err := noc.CaptureWaveform()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, wf.VCD, 0o644); err != nil {
		return err
	}
	if _, err := io.WriteString(w, wf.ASCII); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nocbench: wrote %d-cycle, %d-signal quicklook VCD to %s\n",
		wf.Cycles, len(wf.Signals), path)
	return nil
}

// patternTracePath derives the per-fabric trace filename of a -pattern
// run: the fabric kind inserted before the extension, so three fabrics
// sharing one -trace flag write three valid Chrome JSON documents.
func patternTracePath(base string, kind noc.Kind) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + string(kind) + ext
}

// dumpMetrics renders a metrics snapshot to stderr, one line per sample.
func dumpMetrics(label string, samples []obs.Sample) {
	for _, s := range samples {
		fmt.Fprintf(os.Stderr, "nocbench: metric %s%s %s=%d", label, s.Name, s.Kind, s.Value)
		if s.Kind == "histogram" {
			fmt.Fprintf(os.Stderr, " sum=%d", s.Sum)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// runPattern executes one synthetic-pattern scenario on all three
// fabrics and emits one JSON result per fabric. With traceFile each
// fabric's structured events go to their own Chrome trace JSON; with
// metrics each fabric's registry snapshot is dumped to stderr. Neither
// changes a byte of the JSON results on stdout.
func runPattern(w io.Writer, name, inject string, meshSize, cycles int, kernel string, simWorkers, reps int, warmup, traceFile string, metrics bool) error {
	sc := noc.Scenario{Name: "pattern:" + name, Pattern: name}
	if inject != "" {
		inj, err := noc.ParseInjection(inject)
		if err != nil {
			return err
		}
		sc.Injection = &inj
	}
	if meshSize != 0 {
		sc.MeshWidth, sc.MeshHeight = meshSize, meshSize
	}
	sc.Cycles = cycles
	sc.Replications = reps
	if warmup != "" {
		if warmup == "auto" {
			sc.WarmupAuto = true
		} else {
			n, err := strconv.Atoi(warmup)
			if err != nil || n < 0 {
				return fmt.Errorf(`-warmup must be "auto" or a non-negative cycle count, got %q`, warmup)
			}
			sc.WarmupCycles = n
		}
	}
	k, err := noc.ParseKernel(kernel)
	if err != nil {
		return err
	}
	kinds := []noc.Kind{noc.KindCircuit, noc.KindPacket, noc.KindTDM}
	fabricOpts := make([][]noc.Option, len(kinds))
	for i, kind := range kinds {
		fabricOpts[i] = []noc.Option{noc.WithKernel(k), noc.WithParallelism(simWorkers)}
		if traceFile != "" {
			f, ferr := os.Create(patternTracePath(traceFile, kind))
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			fabricOpts[i] = append(fabricOpts[i], noc.WithTrace(f))
		}
		if metrics {
			fabricOpts[i] = append(fabricOpts[i], noc.WithMetrics(true))
		}
	}
	sim, err := noc.NewSimulator(
		noc.CircuitSwitched(fabricOpts[0]...),
		noc.PacketSwitched(fabricOpts[1]...),
		noc.AetherealTDM(fabricOpts[2]...),
	)
	if err != nil {
		return err
	}
	results, err := sim.Run(sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "[")
	for i, r := range results {
		b, err := r.JSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if i < len(results)-1 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintln(w)
		if metrics {
			dumpMetrics(string(r.Fabric)+".", r.Metrics)
		}
	}
	fmt.Fprintln(w, "]")
	return nil
}

// sweepFlags bundles the command-line knobs of a -sweep run.
type sweepFlags struct {
	workers, simWorkers, reps   int
	csv, progress, metrics      bool
	kernel, cacheDir, traceFile string
	expvars                     bool
}

// busyMonitor tracks per-worker wall-clock busy time from the sweep
// engine's scheduling callbacks. All wall-clock accounting lives here,
// on the CLI side — the deterministic engine only reports counts.
type busyMonitor struct {
	mu     sync.Mutex
	busy   map[int]time.Duration
	active map[int]time.Time
}

func newBusyMonitor() *busyMonitor {
	return &busyMonitor{busy: map[int]time.Duration{}, active: map[int]time.Time{}}
}

// JobStart implements noc.SweepMonitor.
func (m *busyMonitor) JobStart(worker, job int) {
	m.mu.Lock()
	m.active[worker] = time.Now()
	m.mu.Unlock()
}

// JobDone implements noc.SweepMonitor.
func (m *busyMonitor) JobDone(worker, job int) {
	m.mu.Lock()
	if t, ok := m.active[worker]; ok {
		m.busy[worker] += time.Since(t)
		delete(m.active, worker)
	}
	m.mu.Unlock()
}

// busyFraction returns the pool's mean busy fraction over the elapsed
// window: total busy time (in-flight jobs included) over workers×elapsed.
func (m *busyMonitor) busyFraction(workers int, elapsed time.Duration) float64 {
	if workers <= 0 || elapsed <= 0 {
		return 0
	}
	m.mu.Lock()
	var total time.Duration
	for _, d := range m.busy {
		total += d
	}
	for _, t := range m.active {
		total += time.Since(t)
	}
	m.mu.Unlock()
	return float64(total) / (float64(workers) * float64(elapsed))
}

// runSweep loads a noc.SweepSpec from the file and streams the cells to
// w. Ctrl-C cancels the sweep cleanly mid-run. The observability flags
// (-cache traffic, -trace, -progress, -metrics) all report to stderr or
// side files — sweep output on stdout stays byte-identical with any
// combination of them enabled.
func runSweep(w io.Writer, path string, fl sweepFlags) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := noc.ParseSweepSpec(b)
	if err != nil {
		return err
	}
	if fl.workers != 0 {
		spec.Workers = fl.workers
	}
	if fl.kernel != "" {
		spec.Kernel = fl.kernel
	}
	if fl.simWorkers != 0 {
		spec.SimWorkers = fl.simWorkers
	}
	if fl.reps != 0 {
		spec.Replications = fl.reps
	}
	if fl.cacheDir != "" {
		spec.Cache = true
		spec.CacheDir = fl.cacheDir
	}
	if fl.traceFile != "" {
		f, ferr := os.Create(fl.traceFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		spec.Obs.Trace = f
	}
	var reg *obs.Registry
	if fl.metrics {
		reg = obs.NewRegistry()
		spec.Obs.Metrics = reg
	}
	var mon *busyMonitor
	if fl.expvars && !fl.progress {
		// -http without -progress still publishes the live sweep
		// counters to /debug/vars; only the stderr heartbeat is tied
		// to -progress.
		jobsDone := expvar.NewInt("nocbench.sweep.jobs_done")
		cellsDone := expvar.NewInt("nocbench.sweep.cells_done")
		spec.Obs.Progress = func(p noc.SweepProgress) error {
			jobsDone.Set(int64(p.JobsDone))
			cellsDone.Set(int64(p.CellsDone))
			return nil
		}
	}
	if fl.progress {
		mon = newBusyMonitor()
		spec.Obs.Monitor = mon
		poolWorkers := spec.Workers
		if poolWorkers == 0 {
			poolWorkers = runtime.GOMAXPROCS(0)
		}
		start := time.Now()
		var lastBeat time.Time
		var jobsDone, cellsDone *expvar.Int
		if fl.expvars {
			jobsDone = expvar.NewInt("nocbench.sweep.jobs_done")
			cellsDone = expvar.NewInt("nocbench.sweep.cells_done")
		}
		// Progress is called from the engine's single emission goroutine
		// in deterministic job order; everything wall-clock-derived is
		// computed here.
		spec.Obs.Progress = func(p noc.SweepProgress) error {
			if jobsDone != nil {
				jobsDone.Set(int64(p.JobsDone))
				cellsDone.Set(int64(p.CellsDone))
			}
			done := p.JobsDone == p.JobsTotal
			if !done && time.Since(lastBeat) < 250*time.Millisecond {
				return nil
			}
			lastBeat = time.Now()
			elapsed := time.Since(start)
			eta := "?"
			if p.JobsDone > 0 {
				rem := time.Duration(float64(elapsed) / float64(p.JobsDone) *
					float64(p.JobsTotal-p.JobsDone))
				eta = rem.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr,
				"nocbench: cells %d/%d jobs %d/%d hits %d errs %d | %.2g cycles/s busy %.0f%% eta %s\n",
				p.CellsDone, p.CellsTotal, p.JobsDone, p.JobsTotal, p.CacheHits, p.Errors,
				float64(p.CyclesDone)/elapsed.Seconds(),
				100*mon.busyFraction(poolWorkers, elapsed), eta)
			return nil
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runErr := func() error {
		if fl.csv {
			return noc.SweepCSV(ctx, spec, w)
		}
		return noc.SweepJSON(ctx, spec, w)
	}()
	if reg != nil {
		dumpMetrics("", reg.Snapshot())
	}
	if fl.cacheDir != "" {
		// OpenCache deduplicates per directory, so this reads the
		// instance the sweep just used.
		if c, cerr := noc.OpenCache(spec.CacheDir); cerr == nil {
			s := c.Counters()
			fmt.Fprintf(os.Stderr, "nocbench: cache hits=%d misses=%d puts=%d\n",
				s.Hits, s.Misses, s.Puts)
		}
	}
	return runErr
}
