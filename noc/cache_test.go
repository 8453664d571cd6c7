package noc

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// withTestFingerprint pins the code-version fingerprint for the test's
// duration so golden keys do not depend on the build.
func withTestFingerprint(t *testing.T, fp string) {
	t.Helper()
	old := fingerprintOverride
	fingerprintOverride = fp
	t.Cleanup(func() { fingerprintOverride = old })
}

// cacheTestScenario is the representative cell: a defaulted paper
// scenario with an explicit seed, exactly what a sweep hands a fabric.
func cacheTestScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := PaperScenario("I")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 42
	return sc.withDefaults()
}

// TestCacheKeyGolden pins the content addresses of representative cells.
// A change here means every existing cache is invalidated — deliberate
// when the key material changes, an accident otherwise. Update the
// goldens (and bump cacheKeySchema when the material layout changed)
// only with that in mind.
func TestCacheKeyGolden(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-1")
	sc := cacheTestScenario(t)
	pat := Scenario{Name: "pat", Pattern: "uniform", Seed: 7}.withDefaults()

	golden := []struct {
		name string
		key  string
	}{
		{"circuit-I", cellKey(KindCircuit, makeConfig(nil), sc).String()},
		{"packet-I", cellKey(KindPacket, makeConfig(nil), sc).String()},
		{"tdm-I", cellKey(KindTDM, makeConfig(nil), sc).String()},
		{"circuit-pattern", cellKey(KindCircuit, makeConfig(nil), pat).String()},
	}
	want := map[string]string{
		"circuit-I":       "24cc213b20a4de6eacf8fa27ff8907b8102fea93beaac274fec29ebef74c2d09",
		"packet-I":        "4f9892cf8ee7402e6249d39ba0698e61c9e1baec288b3494c5b94fae95c970d8",
		"tdm-I":           "530d8e6cd451c3de6b66ee1c0bcc58880d68a88bfa182436f1d0664f7c7ff197",
		"circuit-pattern": "480af403790f62662cfcd15be98c9d010b7c168d0401cc97630d0573562b006d",
	}
	for _, g := range golden {
		if g.key != want[g.name] {
			t.Errorf("%s: key %s, want %s", g.name, g.key, want[g.name])
		}
	}
}

// TestCacheKeySensitivity: every result-relevant input — scenario
// fields, seed, fabric knobs, kind, fingerprint — must change the key;
// the kernel and worker count must not (results are byte-identical
// across them, so a result computed under one serves the others).
func TestCacheKeySensitivity(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-1")
	base := cacheTestScenario(t)
	baseKey := cellKey(KindCircuit, makeConfig(nil), base)

	mutations := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"seed", func(sc *Scenario) { sc.Seed++ }},
		{"cycles", func(sc *Scenario) { sc.Cycles++ }},
		{"freq", func(sc *Scenario) { sc.FreqMHz += 1 }},
		{"load", func(sc *Scenario) { sc.Data.Load += 0.01 }},
		{"flip", func(sc *Scenario) { sc.Data.FlipProb += 0.01 }},
		{"name", func(sc *Scenario) { sc.Name += "x" }},
		{"words", func(sc *Scenario) { sc.WordsPerStream += 5 }},
		{"warmup", func(sc *Scenario) { sc.WarmupCycles = 100 }},
		{"warmup-auto", func(sc *Scenario) { sc.WarmupAuto = true }},
		{"pool-latency", func(sc *Scenario) { sc.poolLatency = true }},
	}
	seen := map[string]string{baseKey.String(): "base"}
	for _, m := range mutations {
		sc := base
		m.mut(&sc)
		k := cellKey(KindCircuit, makeConfig(nil), sc).String()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", m.name, prev)
		}
		seen[k] = m.name
	}

	cfgMutations := []struct {
		name string
		opts []Option
	}{
		{"lanes", []Option{WithLanes(2)}},
		{"lane-width", []Option{WithLaneWidth(4)}},
		{"vcs", []Option{WithVirtualChannels(2)}},
		{"buffer-depth", []Option{WithBufferDepth(4)}},
		{"slots", []Option{WithSlots(16)}},
		{"gating", []Option{WithClockGating(true)}},
		{"corner", []Option{WithLibraryCorner("hvt")}},
		{"latency-words", []Option{WithLatencyWords(10)}},
	}
	for _, m := range cfgMutations {
		k := cellKey(KindCircuit, makeConfig(m.opts), base).String()
		if prev, dup := seen[k]; dup {
			t.Errorf("config mutation %q collides with %q", m.name, prev)
		}
		seen[k] = "cfg:" + m.name
	}

	if k := cellKey(KindPacket, makeConfig(nil), base); k == baseKey {
		t.Error("fabric kind does not change the key")
	}
	withTestFingerprint(t, "test-fingerprint-2")
	if k := cellKey(KindCircuit, makeConfig(nil), base); k == baseKey {
		t.Error("code fingerprint does not change the key")
	}
	withTestFingerprint(t, "test-fingerprint-1")

	// Deliberate exclusions: kernel and worker count.
	if k := cellKey(KindCircuit, makeConfig([]Option{WithKernel(KernelNaive)}), base); k != baseKey {
		t.Error("kernel choice changes the key; cross-kernel byte-identity makes it shareable")
	}
	if k := cellKey(KindCircuit, makeConfig([]Option{WithParallelism(4)}), base); k != baseKey {
		t.Error("worker bound changes the key; results are byte-identical at any worker count")
	}
}

// TestResultEnvelopeRoundTrip: the stored form reproduces the wire
// bytes exactly and reattaches the off-wire latency samples.
func TestResultEnvelopeRoundTrip(t *testing.T) {
	f := CircuitSwitched()
	sc := cacheTestScenario(t)
	sc.poolLatency = true
	res, err := f.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encodeResultEnvelope(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResultEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("decoded result's JSON differs from the original")
	}
	if res.Latency != nil {
		if got, want := len(back.Latency.Samples), len(res.Latency.Samples); got != want {
			t.Fatalf("reattached %d samples, want %d", got, want)
		}
	}
}

// TestFabricRunCached: the façade-level cache serves a repeat run
// byte-identically and reports hit/miss through Result.CacheStats.
func TestFabricRunCached(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-run")
	dir := t.TempDir()
	sc := cacheTestScenario(t)
	for _, f := range []Fabric{CircuitSwitched(WithCache(dir)), PacketSwitched(WithCache(dir)),
		AetherealTDM(WithCache(dir))} {
		first, err := f.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", f.Kind(), err)
		}
		if first.CacheStats == nil || first.CacheStats.Hit {
			t.Fatalf("%s: first run CacheStats %+v, want miss", f.Kind(), first.CacheStats)
		}
		second, err := f.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", f.Kind(), err)
		}
		if second.CacheStats == nil || !second.CacheStats.Hit {
			t.Fatalf("%s: second run CacheStats %+v, want hit", f.Kind(), second.CacheStats)
		}
		if second.CacheStats.Key != first.CacheStats.Key {
			t.Fatalf("%s: key changed between runs", f.Kind())
		}
		j1, _ := first.JSON()
		j2, _ := second.JSON()
		if !bytes.Equal(j1, j2) {
			t.Fatalf("%s: cached result differs from fresh run", f.Kind())
		}
	}
}

// cacheSweepSpec is the sweep used by the cold/warm byte-compare: a
// pattern grid over all three fabrics.
func cacheSweepSpec(workers int, dir string) SweepSpec {
	return SweepSpec{
		Fabrics: []FabricSpec{{Kind: KindCircuit}, {Kind: KindPacket}, {Kind: KindTDM}},
		Grid: &Grid{
			Patterns: []string{"uniform"},
			Loads:    []float64{0.2, 0.5},
			Cycles:   []int{800},
		},
		Seed:     99,
		Workers:  workers,
		Cache:    true,
		CacheDir: dir,
	}
}

// TestSweepCacheColdWarmByteCompare is the tentpole acceptance test:
// sweep output must be byte-identical across cache-off, cache-cold and
// cache-warm runs, at worker counts 1 and 8, and the warm run must
// actually hit.
func TestSweepCacheColdWarmByteCompare(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-sweep")
	dir := t.TempDir()
	ctx := context.Background()

	baseline := cacheSweepSpec(1, dir)
	baseline.Cache, baseline.CacheDir = false, ""
	var off bytes.Buffer
	if err := SweepJSON(ctx, baseline, &off); err != nil {
		t.Fatal(err)
	}

	var cold bytes.Buffer
	if err := SweepJSON(ctx, cacheSweepSpec(1, dir), &cold); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), cold.Bytes()) {
		t.Fatal("cold cached sweep differs from cache-disabled sweep")
	}

	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Counters()
	if before.Puts == 0 {
		t.Fatal("cold sweep stored nothing")
	}

	for _, workers := range []int{1, 8} {
		var warm bytes.Buffer
		if err := SweepJSON(ctx, cacheSweepSpec(workers, dir), &warm); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(off.Bytes(), warm.Bytes()) {
			t.Fatalf("warm sweep (workers=%d) differs from cache-disabled sweep", workers)
		}
	}
	after := cache.Counters()
	if after.Hits <= before.Hits {
		t.Fatalf("warm sweeps did not hit (hits %d -> %d)", before.Hits, after.Hits)
	}
	if after.Puts != before.Puts {
		t.Fatalf("warm sweeps stored new entries (puts %d -> %d)", before.Puts, after.Puts)
	}
}

// TestSweepCacheReplications: a replicated sweep caches each
// replication individually, so raising the count only computes the new
// tail — and output stays byte-identical to an uncached run.
func TestSweepCacheReplications(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-reps")
	dir := t.TempDir()
	ctx := context.Background()

	spec := cacheSweepSpec(2, dir)
	spec.Replications = 2
	spec.Grid = &Grid{Patterns: []string{"uniform"}, Cycles: []int{600}}
	if err := SweepJSON(ctx, spec, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Counters()

	spec.Replications = 3
	var warm, off bytes.Buffer
	if err := SweepJSON(ctx, spec, &warm); err != nil {
		t.Fatal(err)
	}
	after := cache.Counters()
	if after.Hits <= before.Hits {
		t.Fatal("replication extension did not reuse cached replications")
	}

	plain := spec
	plain.Cache, plain.CacheDir = false, ""
	if err := SweepJSON(ctx, plain, &off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), warm.Bytes()) {
		t.Fatal("replicated cached sweep differs from cache-disabled sweep")
	}
}

// TestSweepCacheCountsEachJobOnce: a cold cached sweep looks every job
// up once and stores it once, and a replay serves every job from the
// cache without storing anything — at one worker and at eight, with a
// replicated cell whose replications are jobs of their own.
func TestSweepCacheCountsEachJobOnce(t *testing.T) {
	withTestFingerprint(t, "test-fingerprint-counts")
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			spec := SweepSpec{
				Scenarios: []Scenario{
					{Name: "u", Pattern: "uniform", Cycles: 300, MeshWidth: 4, MeshHeight: 4},
					{Name: "r", Pattern: "transpose", Cycles: 300, MeshWidth: 4, MeshHeight: 4,
						Replications: 3},
				},
				Seed:     11,
				Workers:  workers,
				CacheDir: dir,
			}
			const jobs = 3 * (1 + 3) // three fabrics × (one plain + three replications)
			cache, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			spec.Obs.Metrics = reg
			var cold bytes.Buffer
			if err := SweepJSON(ctx, spec, &cold); err != nil {
				t.Fatal(err)
			}
			c := cache.Counters()
			if c.Hits != 0 || c.Misses != jobs || c.Puts != jobs {
				t.Fatalf("cold sweep counters %+v, want 0 hits, %d misses, %d puts", c, jobs, jobs)
			}
			if got := reg.Counter("cache.misses").Value(); got != jobs {
				t.Fatalf("cold sweep reported %d misses to the registry, want %d", got, jobs)
			}

			spec.Obs.Metrics = nil
			var replay bytes.Buffer
			if err := SweepJSON(ctx, spec, &replay); err != nil {
				t.Fatal(err)
			}
			r := cache.Counters()
			if r.Hits-c.Hits != jobs || r.Misses != c.Misses || r.Puts != c.Puts {
				t.Fatalf("replay counters %+v after cold %+v, want %d more hits and no misses or puts",
					r, c, jobs)
			}
			if !bytes.Equal(cold.Bytes(), replay.Bytes()) {
				t.Fatal("replayed sweep differs from the cold sweep")
			}
		})
	}
}
