package pattern

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
)

func TestParseSpatialRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sp, err := ParseSpatial(name)
		if err != nil {
			t.Fatalf("ParseSpatial(%q): %v", name, err)
		}
		if sp.String() != name {
			t.Errorf("round trip %q -> %q", name, sp.String())
		}
	}
	sp, err := ParseSpatial("hotspot:0.7")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != Hotspot || sp.Alpha != 0.7 {
		t.Fatalf("hotspot:0.7 parsed as %+v", sp)
	}
	if sp.String() != "hotspot:0.7" {
		t.Errorf("hotspot round trip: %q", sp.String())
	}
	for _, bad := range []string{"", "nope", "hotspot:0", "hotspot:1.5", "uniform:3"} {
		if _, err := ParseSpatial(bad); err == nil {
			t.Errorf("ParseSpatial(%q) accepted", bad)
		}
	}
}

func TestDeterministicPatterns(t *testing.T) {
	const w, h = 4, 4
	// Transpose: (x,y) -> (y,x).
	sp := Spatial{Kind: Transpose}
	if d := sp.fixedDest(1, w, h); d != 4 { // (1,0) -> (0,1)
		t.Errorf("transpose(1) = %d, want 4", d)
	}
	if d := sp.fixedDest(5, w, h); d != -1 { // (1,1) is a fixed point
		t.Errorf("transpose diagonal = %d, want -1", d)
	}
	// Bit complement: i -> 15-i.
	sp = Spatial{Kind: BitComplement}
	for i := 0; i < w*h; i++ {
		if d := sp.fixedDest(i, w, h); d != w*h-1-i {
			t.Errorf("bitcomp(%d) = %d, want %d", i, d, w*h-1-i)
		}
	}
	// Bit reverse over 4 bits: 0b0001 -> 0b1000.
	sp = Spatial{Kind: BitReverse}
	if d := sp.fixedDest(1, w, h); d != 8 {
		t.Errorf("bitrev(1) = %d, want 8", d)
	}
	if d := sp.fixedDest(0b0011, w, h); d != 0b1100 {
		t.Errorf("bitrev(3) = %d, want 12", d)
	}
}

func TestPermutationIsBijection(t *testing.T) {
	const n = 64
	p := permTable(n, 42)
	seen := map[int]bool{}
	for _, d := range p {
		if d < 0 || d >= n || seen[d] {
			t.Fatalf("permTable not a bijection: %v", p)
		}
		seen[d] = true
	}
	if !reflect.DeepEqual(permTable(n, 42), p) {
		t.Error("permTable not deterministic")
	}
	if reflect.DeepEqual(permTable(n, 43), p) {
		t.Error("permTable ignores the seed")
	}
}

func TestFlowsDeterministicAndSeedSensitive(t *testing.T) {
	sp := Spatial{Kind: Uniform}
	a := sp.Flows(8, 8, 7)
	b := sp.Flows(8, 8, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Flows not deterministic for a fixed seed")
	}
	c := sp.Flows(8, 8, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("Flows ignores the seed")
	}
	for _, f := range a {
		if f.Src == f.Dst {
			t.Fatalf("self flow %+v", f)
		}
	}
	if len(a) != 64 {
		t.Fatalf("uniform flows: got %d, want 64", len(a))
	}
}

func TestUniformDestinationCoverage(t *testing.T) {
	// Many draws from one source must cover all other nodes roughly
	// uniformly: every destination hit, none more than twice the mean.
	const w, h, draws = 4, 4, 16000
	sp := Spatial{Kind: Uniform}
	rng := bitvec.NewXorShift64(99)
	counts := make([]int, w*h)
	for i := 0; i < draws; i++ {
		counts[sp.Draw(rng, 5, w, h)]++
	}
	if counts[5] != 0 {
		t.Fatalf("uniform drew self %d times", counts[5])
	}
	mean := float64(draws) / float64(w*h-1)
	for d, c := range counts {
		if d == 5 {
			continue
		}
		if float64(c) < 0.5*mean || float64(c) > 2*mean {
			t.Errorf("destination %d drawn %d times, mean %.0f", d, c, mean)
		}
	}
}

func TestHotspotConcentration(t *testing.T) {
	const w, h, draws = 4, 4, 40000
	sp := Spatial{Kind: Hotspot, Alpha: 0.6}
	hot := HotspotNode(w, h)
	rng := bitvec.NewXorShift64(123)
	hits := 0
	for i := 0; i < draws; i++ {
		if sp.Draw(rng, 0, w, h) == hot {
			hits++
		}
	}
	// Expected fraction: alpha plus the uniform share of the hotspot.
	want := 0.6 + 0.4/float64(w*h-1)
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hotspot fraction %.3f, want %.3f +- 0.02", got, want)
	}
}

func TestNeighbourDrawsAdjacent(t *testing.T) {
	const w, h = 5, 3
	sp := Spatial{Kind: Neighbour}
	rng := bitvec.NewXorShift64(5)
	for src := 0; src < w*h; src++ {
		for i := 0; i < 50; i++ {
			d := sp.Draw(rng, src, w, h)
			dx := abs(d%w - src%w)
			dy := abs(d/w - src/w)
			if dx+dy != 1 {
				t.Fatalf("neighbour draw %d from %d is not adjacent", d, src)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestProbWeightsSumToOne(t *testing.T) {
	const w, h = 4, 4
	for _, sp := range []Spatial{
		{Kind: Uniform}, {Kind: Hotspot, Alpha: 0.3}, {Kind: Neighbour},
		{Kind: Transpose}, {Kind: BitComplement}, {Kind: BitReverse},
		{Kind: Permutation},
	} {
		for src := 0; src < w*h; src++ {
			ws := sp.ProbWeights(src, w, h, 3)
			sum := 0.0
			for d, p := range ws {
				if d == src {
					t.Fatalf("%v: self weight at %d", sp, src)
				}
				sum += p
			}
			if len(ws) == 0 {
				continue // fixed point of a deterministic pattern
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%v src %d: weights sum to %v", sp, src, sum)
			}
		}
	}
}

// allSpatials lists every spatial kind, hotspot at two fractions.
var allSpatials = []Spatial{
	{Kind: Uniform}, {Kind: Transpose}, {Kind: BitComplement}, {Kind: BitReverse},
	{Kind: Hotspot, Alpha: 0.5}, {Kind: Hotspot, Alpha: 0.8},
	{Kind: Neighbour}, {Kind: Permutation},
}

func TestPortFlowsConservation(t *testing.T) {
	// Total weight through all routers' tile-exit ports must equal the
	// total injected weight: every word is injected once and ejected
	// once somewhere.
	for _, m := range [][2]int{{4, 4}, {5, 3}} {
		w, h := m[0], m[1]
		for _, sp := range allSpatials {
			injected, ejected := 0.0, 0.0
			for obs := 0; obs < w*h; obs++ {
				for _, f := range PortFlows(sp, w, h, obs, 1) {
					if f.In == core.Tile {
						injected += f.Weight
					}
					if f.Out == core.Tile {
						ejected += f.Weight
					}
				}
			}
			want := 0.0
			for src := 0; src < w*h; src++ {
				for _, p := range sp.ProbWeights(src, w, h, 1) {
					want += p
				}
			}
			if want == 0 {
				t.Errorf("%v on %dx%d: pattern carries no traffic", sp, w, h)
			}
			if math.Abs(injected-want) > 1e-9 || math.Abs(ejected-want) > 1e-9 {
				t.Errorf("%v on %dx%d: injected %.6f ejected %.6f want %.6f", sp, w, h, injected, ejected, want)
			}
		}
	}
}

// portFlowsReference is the direct O(N²) projection: every source's full
// ProbWeights distribution, each relation XY-routed, summed per port pair
// in ascending (source, destination) order. PortFlows must reproduce it
// bit for bit.
func portFlowsReference(sp Spatial, w, h, obs int, seed uint64) []PortFlow {
	n := w * h
	acc := map[[2]core.Port]float64{}
	for src := 0; src < n; src++ {
		ws := sp.ProbWeights(src, w, h, seed)
		dsts := make([]int, 0, len(ws))
		for dst := range ws {
			dsts = append(dsts, dst)
		}
		sort.Ints(dsts)
		for _, dst := range dsts {
			in, out, ok := portsThrough(src, dst, obs, w)
			if !ok {
				continue
			}
			acc[[2]core.Port{in, out}] += ws[dst]
		}
	}
	keys := make([][2]core.Port, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]PortFlow, 0, len(keys))
	for _, k := range keys {
		out = append(out, PortFlow{In: k[0], Out: k[1], Weight: acc[k]})
	}
	return out
}

// TestPortFlowsMatchesReference pins the route-restricted projection to
// the direct one: the same port pairs in the same order, with weights
// equal to the last bit.
func TestPortFlowsMatchesReference(t *testing.T) {
	for _, m := range [][2]int{{2, 2}, {3, 5}, {5, 3}, {7, 4}, {8, 8}, {16, 16}} {
		w, h := m[0], m[1]
		var nodes []int
		if w*h <= 64 {
			for obs := 0; obs < w*h; obs++ {
				nodes = append(nodes, obs)
			}
		} else {
			// Corners, edge midpoints and centre.
			for _, xy := range [][2]int{
				{0, 0}, {w - 1, 0}, {0, h - 1}, {w - 1, h - 1},
				{w / 2, 0}, {w / 2, h - 1}, {0, h / 2}, {w - 1, h / 2},
				{w / 2, h / 2},
			} {
				nodes = append(nodes, xy[1]*w+xy[0])
			}
		}
		for _, sp := range allSpatials {
			for _, seed := range []uint64{1, 3, 0xdeadbeef} {
				for _, obs := range nodes {
					got := PortFlows(sp, w, h, obs, seed)
					want := portFlowsReference(sp, w, h, obs, seed)
					if msg := diffPortFlows(got, want); msg != "" {
						t.Fatalf("%v %dx%d obs %d seed %#x: %s", sp, w, h, obs, seed, msg)
					}
				}
			}
		}
	}
}

// diffPortFlows describes the first difference between two projections
// ("" when they agree bit for bit).
func diffPortFlows(got, want []PortFlow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d flows, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.In != w.In || g.Out != w.Out || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
			return fmt.Sprintf("flow %d = %v->%v %x, want %v->%v %x",
				i, g.In, g.Out, math.Float64bits(g.Weight), w.In, w.Out, math.Float64bits(w.Weight))
		}
	}
	return ""
}

// TestPortFlowsOffMesh checks that an observed node off the mesh sees no
// traffic.
func TestPortFlowsOffMesh(t *testing.T) {
	for _, obs := range []int{-1, -5, 16, 40} {
		if got := PortFlows(Spatial{Kind: Uniform}, 4, 4, obs, 1); len(got) != 0 {
			t.Errorf("obs %d: %v", obs, got)
		}
	}
}

// TestPortFlowsAllocs guards the projection's allocation profile: a
// constant handful per call, independent of the mesh size (no per-source
// maps or slices).
func TestPortFlowsAllocs(t *testing.T) {
	for _, n := range []int{8, 48} {
		sp := Spatial{Kind: Uniform}
		obs := HotspotNode(n, n)
		allocs := testing.AllocsPerRun(3, func() { PortFlows(sp, n, n, obs, 1) })
		if allocs > 3 {
			t.Errorf("PortFlows %dx%d uniform: %.0f allocs per call, want <= 3", n, n, allocs)
		}
	}
}

func BenchmarkPortFlows(b *testing.B) {
	for _, n := range []int{32, 48} {
		for _, sp := range []Spatial{{Kind: Uniform}, {Kind: Hotspot}} {
			b.Run(fmt.Sprintf("%s_%dx%d", sp, n, n), func(b *testing.B) {
				obs := HotspotNode(n, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PortFlows(sp, n, n, obs, 1)
				}
			})
		}
	}
}

func TestPortFlowsHotspotConcentratesAtCentre(t *testing.T) {
	const w, h = 4, 4
	hot := HotspotNode(w, h)
	sumAt := func(obs int) float64 {
		total := 0.0
		for _, f := range PortFlows(Spatial{Kind: Hotspot, Alpha: 0.8}, w, h, obs, 1) {
			if f.Out == core.Tile {
				total += f.Weight
			}
		}
		return total
	}
	if sumAt(hot) < 5*sumAt(0) {
		t.Errorf("hotspot tile delivery at centre %.3f not >> corner %.3f", sumAt(hot), sumAt(0))
	}
}
