package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"

	"repro/internal/cellcache"
	"repro/internal/obs"
)

// This file is the façade's content-addressed result cache. It keys
// every single run — a sweep cell, one replication of a replicated
// cell, or a standalone Fabric.Run — by a canonical hash of the fully
// resolved configuration (fabric knobs, defaulted scenario, derived
// seed) plus a code-version fingerprint, and stores the encoded Result
// in an internal/cellcache store. Determinism is the correctness
// argument: the key material fully determines the run's bytes, so a
// hit is byte-exact by construction, and sweeps are byte-identical for
// any worker count, hit pattern or warm/cold state.
//
// Each run is looked up exactly once. A sweep job is looked up by the
// sweep engine before dispatch and, on a miss, runs its fabric without
// a cache and stores the result from the worker; a standalone
// Fabric.Run with WithCache goes through runThrough. Both share get and
// put, so a miss is counted once.
//
// Deliberately excluded from the key: the kernel choice and the Eval
// worker bound. Results are byte-identical across kernels and worker
// counts — the contract the CI equivalence jobs enforce — so a result
// computed under one kernel may serve a run requested under another.

// cacheKeySchema versions the key material; bump it when the material
// layout or the meaning of any field changes.
const cacheKeySchema = 1

// fingerprintOverride replaces the build-info fingerprint when
// non-empty. Tests use it to pin golden keys and to model a code-version
// change invalidating the cache.
var fingerprintOverride string

var (
	fingerprintOnce sync.Once
	fingerprintVal  string
)

// codeFingerprint identifies the code version that produced a cached
// result: the main module's version plus a hash of the full build info
// (module graph, VCS revision, build settings). Two binaries with the
// same fingerprint compute the same results for the same key material,
// which is what lets a disk cache outlive the process.
func codeFingerprint() string {
	if fingerprintOverride != "" {
		return fingerprintOverride
	}
	fingerprintOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			fingerprintVal = "no-build-info"
			return
		}
		sum := sha256.Sum256([]byte(bi.String()))
		fingerprintVal = bi.Main.Version + "+" + hex.EncodeToString(sum[:8])
	})
	return fingerprintVal
}

// fabricKeyMaterial is the result-relevant fabric configuration, fully
// resolved. Kernel and SimWorkers are deliberately absent (results are
// byte-identical across them); the test-only world observer disables
// caching instead of participating in the key.
type fabricKeyMaterial struct {
	Lanes        int    `json:"lanes"`
	LaneWidth    int    `json:"lane_width"`
	VCs          int    `json:"vcs"`
	BufferDepth  int    `json:"buffer_depth"`
	Slots        int    `json:"slots"`
	BEDepth      int    `json:"be_depth"`
	Gated        bool   `json:"gated"`
	Corner       string `json:"corner"`
	LatencyWords int    `json:"latency_words"`
	TraceCycles  int    `json:"trace_cycles"`
}

// fabricKeyOf resolves the config into key material.
func fabricKeyOf(cfg config) fabricKeyMaterial {
	corner := cfg.corner
	if corner == "" {
		corner = "nominal"
	}
	return fabricKeyMaterial{
		Lanes:        cfg.lanes,
		LaneWidth:    cfg.laneWidth,
		VCs:          cfg.vcs,
		BufferDepth:  cfg.bufferDepth,
		Slots:        cfg.slots,
		BEDepth:      cfg.beDepth,
		Gated:        cfg.gated,
		Corner:       corner,
		LatencyWords: cfg.latencySamples(),
		TraceCycles:  cfg.traceCycles,
	}
}

// cacheKeyMaterial is the canonical description hashed into a cell
// key. The scenario is fully defaulted and carries the run's derived
// seed; PoolLatency mirrors the unexported retention marker replicated
// runs set (a pooled run retains raw latency samples, so its cached
// envelope differs from a non-pooled one's).
type cacheKeyMaterial struct {
	Schema      int               `json:"schema"`
	Fingerprint string            `json:"fingerprint"`
	Kind        Kind              `json:"kind"`
	Fabric      fabricKeyMaterial `json:"fabric"`
	Scenario    Scenario          `json:"scenario"`
	PoolLatency bool              `json:"pool_latency"`
}

// cellKey hashes one run's canonical key material. The scenario must
// already be defaulted (withDefaults) and carry its final seed.
func cellKey(kind Kind, cfg config, sc Scenario) cellcache.Key {
	m := cacheKeyMaterial{
		Schema:      cacheKeySchema,
		Fingerprint: codeFingerprint(),
		Kind:        kind,
		Fabric:      fabricKeyOf(cfg),
		Scenario:    sc,
		PoolLatency: sc.poolLatency,
	}
	b, err := json.Marshal(m)
	if err != nil {
		// The material is plain data; marshalling cannot fail. Guard
		// anyway so a future field type cannot silently collapse keys.
		panic(fmt.Sprintf("noc: cache key material: %v", err))
	}
	return cellcache.KeyOf(b)
}

// cacheEnvelope is the stored form of a Result: its JSON wire encoding
// plus the raw latency samples the wire format deliberately excludes,
// so a hit can reattach them and replicated aggregation pools the same
// observations a fresh run would have produced.
type cacheEnvelope struct {
	Result  json.RawMessage `json:"result"`
	Samples []float64       `json:"samples,omitempty"`
}

// encodeResultEnvelope serializes a Result for the cache.
func encodeResultEnvelope(r *Result) ([]byte, error) {
	rb, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	env := cacheEnvelope{Result: rb}
	if r.Latency != nil {
		env.Samples = r.Latency.Samples
	}
	return json.Marshal(env)
}

// decodeResultEnvelope is the inverse of encodeResultEnvelope.
func decodeResultEnvelope(b []byte) (*Result, error) {
	var env cacheEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(env.Result, &r); err != nil {
		return nil, err
	}
	if r.Latency != nil && len(env.Samples) > 0 {
		r.Latency.Samples = env.Samples
	}
	return &r, nil
}

// CacheStats reports how the content-addressed cache handled one run.
type CacheStats struct {
	// Hit reports whether the Result was served from the cache.
	Hit bool
	// Key is the run's content address (hex SHA-256 of the canonical
	// key material).
	Key string
}

// Cache is the façade's content-addressed Result cache (in-memory LRU,
// optionally mirrored to a directory). One Cache is safely shared by
// concurrent runs; instances are deduplicated per directory within the
// process, so every fabric and sweep pointed at the same directory
// shares one store.
type Cache struct {
	store *cellcache.Store
}

// CacheCounters is a point-in-time snapshot of a Cache's traffic.
type CacheCounters struct {
	// Hits, Misses and Puts count the result cache's traffic.
	Hits, Misses, Puts uint64
	// WarmHits and WarmStores are always 0: there is no warm-start
	// checkpoint layer to count (per-cell seeds meant no two runs ever
	// shared a checkpoint, so it was deleted). The fields are kept so
	// existing readers of CacheCounters keep compiling.
	WarmHits, WarmStores uint64
}

// Counters returns the cache's traffic counters.
func (c *Cache) Counters() CacheCounters {
	s := c.store.Stats()
	return CacheCounters{Hits: s.Hits, Misses: s.Misses, Puts: s.Puts}
}

// cacheRegistry deduplicates Cache instances: one process-wide
// in-memory instance, plus one instance per cleaned directory path.
var cacheRegistry struct {
	mu    sync.Mutex
	mem   *Cache
	byDir map[string]*Cache
}

// OpenCache returns the shared cache instance for the given directory;
// the empty string selects the process-wide in-memory cache. Opening
// the same directory twice returns the same instance.
func OpenCache(dir string) (*Cache, error) {
	cacheRegistry.mu.Lock()
	defer cacheRegistry.mu.Unlock()
	if dir == "" {
		if cacheRegistry.mem == nil {
			cacheRegistry.mem = &Cache{store: cellcache.New(cellcache.DefaultMaxEntries)}
		}
		return cacheRegistry.mem, nil
	}
	dir = filepath.Clean(dir)
	if c, ok := cacheRegistry.byDir[dir]; ok {
		return c, nil
	}
	store, err := cellcache.NewDir(dir, cellcache.DefaultMaxEntries)
	if err != nil {
		return nil, fmt.Errorf("noc: cache: %w", err)
	}
	c := &Cache{store: store}
	if cacheRegistry.byDir == nil {
		cacheRegistry.byDir = map[string]*Cache{}
	}
	cacheRegistry.byDir[dir] = c
	return c, nil
}

// runThrough executes one single run (Replications <= 1, scenario
// defaulted and validated) through the cache: a hit returns the stored
// Result byte-identically; a miss runs and stores. A nil receiver means
// caching is off. The test-only world observer bypasses the cache —
// its contract is observing a real simulation. Observability hooks do
// NOT bypass: a traced hit emits a cache-hit event and returns the
// stored bytes (the honest trace of what happened), a traced miss
// simulates with the tracer attached — safe because the Result wire
// bytes are identical either way, and tracer/metrics never enter the
// cache key.
func (c *Cache) runThrough(kind Kind, cfg config, sc Scenario, run func() (*Result, error)) (*Result, error) {
	if c == nil || cfg.worldObserver != nil {
		return run()
	}
	key := cellKey(kind, cfg, sc)
	res, hit := c.get(key)
	c.observe(cfg.obs, key, hit)
	if !hit {
		var err error
		if res, err = run(); err != nil {
			return nil, err
		}
		c.put(key, res)
	}
	c.store.MetricsInto(cfg.obs.Metrics)
	return res, nil
}

// get returns the stored Result for key, marked as a hit. An
// undecodable entry is treated as a miss; the fresh result's put
// overwrites it.
func (c *Cache) get(key cellcache.Key) (*Result, bool) {
	data, ok := c.store.Get(key)
	if !ok {
		return nil, false
	}
	res, err := decodeResultEnvelope(data)
	if err != nil {
		return nil, false
	}
	res.CacheStats = &CacheStats{Hit: true, Key: key.String()}
	return res, true
}

// put stores a freshly computed Result under key and marks it as a
// miss.
func (c *Cache) put(key cellcache.Key, res *Result) {
	if data, err := encodeResultEnvelope(res); err == nil {
		c.store.Put(key, data)
	}
	res.CacheStats = &CacheStats{Hit: false, Key: key.String()}
}

// observe reports one cache lookup to a run's observability hooks: a
// domain-scope hit/miss event on the "cache" track (cycle 0 — the
// lookup precedes simulation) and a hit/miss counter.
func (c *Cache) observe(h obs.Hooks, key cellcache.Key, hit bool) {
	if t := h.Tracer; t != nil {
		kind := obs.KindCacheMiss
		if hit {
			kind = obs.KindCacheHit
		}
		t.Emit(obs.Event{Track: "cache", Kind: kind, Detail: key.String()[:16]})
	}
	if m := h.Metrics; m != nil {
		if hit {
			m.Counter("cache.hits").Add(1)
		} else {
			m.Counter("cache.misses").Add(1)
		}
	}
}
