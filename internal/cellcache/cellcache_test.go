package cellcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestMemoryGetPut(t *testing.T) {
	s := New(8)
	k := KeyOf([]byte("cell-a"))
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(k, []byte("payload"))
	v, ok := s.Get(k)
	if !ok || string(v) != "payload" {
		t.Fatalf("got %q ok=%v", v, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReturnedSliceIsACopy(t *testing.T) {
	s := New(8)
	k := KeyOf([]byte("k"))
	orig := []byte("abc")
	s.Put(k, orig)
	orig[0] = 'X' // caller mutates after Put
	v, _ := s.Get(k)
	if string(v) != "abc" {
		t.Fatalf("Put did not copy: %q", v)
	}
	v[0] = 'Y' // caller mutates the returned slice
	v2, _ := s.Get(k)
	if string(v2) != "abc" {
		t.Fatalf("Get did not copy: %q", v2)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(2)
	ka, kb, kc := KeyOf([]byte("a")), KeyOf([]byte("b")), KeyOf([]byte("c"))
	s.Put(ka, []byte("A"))
	s.Put(kb, []byte("B"))
	s.Get(ka) // promote a
	s.Put(kc, []byte("C"))
	if _, ok := s.Get(kb); ok {
		t.Fatal("least-recent entry survived eviction")
	}
	if _, ok := s.Get(ka); !ok {
		t.Fatal("promoted entry evicted")
	}
	if _, ok := s.Get(kc); !ok {
		t.Fatal("fresh entry evicted")
	}
}

func TestDiskRoundTripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("disk"))
	s.Put(k, []byte("persisted"))

	// A second store over the same directory sees the entry.
	s2, err := NewDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s2.Get(k)
	if !ok || string(v) != "persisted" {
		t.Fatalf("disk read got %q ok=%v", v, ok)
	}
	// The read promoted the entry into memory: corrupting the file now
	// must not affect the memory hit.
	if err := os.WriteFile(filepath.Join(dir, k.String()+".cell"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(k); !ok || string(v) != "persisted" {
		t.Fatalf("memory hit after promotion got %q ok=%v", v, ok)
	}
}

// TestConcurrentDirStore runs overlapping Put/Get traffic on a directory
// store small enough to evict, so lookups fall through to disk while
// other goroutines write the same keys. Every goroutine reads back each
// shared key right after its own Put (a hit: memory or a complete disk
// file) and probes a key nobody stores (a miss), so the counters are
// exact; a fresh store over the directory then reads every payload back.
func TestConcurrentDirStore(t *testing.T) {
	const workers, keys = 8, 24
	dir := t.TempDir()
	s, err := NewDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) Key { return KeyOf([]byte(fmt.Sprintf("shared-%d", i))) }
	payload := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }
	var wg sync.WaitGroup
	errs := make(chan string, workers*keys)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < keys; j++ {
				i := (j + 3*g) % keys // overlapping key sets, staggered
				s.Put(key(i), payload(i))
				if v, ok := s.Get(key(i)); !ok || !bytes.Equal(v, payload(i)) {
					errs <- fmt.Sprintf("worker %d key %d: got %q ok=%v", g, i, v, ok)
				}
				if _, ok := s.Get(KeyOf([]byte(fmt.Sprintf("absent-%d-%d", g, j)))); ok {
					errs <- fmt.Sprintf("worker %d: hit on a key never stored", g)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	want := Stats{Hits: workers * keys, Misses: workers * keys, Puts: workers * keys}
	if st := s.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if s.lru.Len() != len(s.mem) || len(s.mem) > 4 {
		t.Errorf("LRU holds %d entries, index %d, capacity 4", s.lru.Len(), len(s.mem))
	}

	fresh, err := NewDir(dir, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if v, ok := fresh.Get(key(i)); !ok || !bytes.Equal(v, payload(i)) {
			t.Errorf("fresh store key %d: got %q ok=%v", i, v, ok)
		}
	}
	if st := fresh.Stats(); st != (Stats{Hits: keys}) {
		t.Errorf("fresh store stats %+v, want %d hits", st, keys)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("corrupt"))
	good := EncodeEntry([]byte("payload"))
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:entryHeader-1],
		"badmagic":  append([]byte("XXXX"), good[4:]...),
		"badver":    append(append([]byte(entryMagic), 99), good[5:]...),
		"truncated": good[:len(good)-2],
		"bitflip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 1
			return b
		}(),
	}
	for name, b := range cases {
		if err := os.WriteFile(s.path(k), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("%s: corrupt entry served as a hit", name)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)} {
		got, err := DecodeEntry(EncodeEntry(payload))
		if err != nil {
			t.Fatalf("decode(encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload (%d bytes)", len(payload))
		}
	}
}

func TestKeyOfIsStable(t *testing.T) {
	a, b := KeyOf([]byte("material")), KeyOf([]byte("material"))
	if a != b {
		t.Fatal("same material, different keys")
	}
	if a == KeyOf([]byte("material2")) {
		t.Fatal("different material, same key")
	}
}
