package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/noc"
)

func TestNodeCyclesPerCellKind(t *testing.T) {
	paper, err := noc.PaperScenario("IV")
	if err != nil {
		t.Fatal(err)
	}
	paper.Cycles = 2000
	circuitMesh := patternCell(noc.KindCircuit, "uniform", 16, 1000, inj("poisson", 0.5))
	wide := patternCell(noc.KindCircuit, "uniform", 4, 500, inj("poisson", 0.5))
	wide.Scenario.MeshWidth = 6 // W×H, not W²
	cases := []struct {
		name string
		c    cell
		want uint64
	}{
		{"circuit pattern counts every router", circuitMesh, 16 * 16 * 1000},
		{"circuit pattern W×H", wide, 6 * 4 * 500},
		{"packet projection is one router", patternCell(noc.KindPacket, "uniform", 48, 300, inj("poisson", 0.05)), 300},
		{"TDM projection is one router", patternCell(noc.KindTDM, "hotspot", 32, 300, inj("poisson", 0.05)), 300},
		{"paper scenario on circuit", cell{noc.KindCircuit, paper}, 2000},
		{"paper scenario on packet", cell{noc.KindPacket, paper}, 2000},
		{"paper scenario on TDM", cell{noc.KindTDM, paper}, 2000},
	}
	for _, tc := range cases {
		if got := nodeCycles(tc.c); got != tc.want {
			t.Errorf("%s: nodeCycles = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRoundNodeCycles(t *testing.T) {
	cells := meshDense(1)
	if got, want := roundNodeCycles(cells), uint64(4*16*16*1000); got != want {
		t.Errorf("mesh-dense round = %d node-cycles, want %d", got, want)
	}
	// A cache round runs pass 1 (every other cell) and then pass 2 (all).
	all := []cell{
		patternCell(noc.KindCircuit, "uniform", 4, 100, inj("poisson", 0.1)), // 1600, pass 1
		patternCell(noc.KindPacket, "uniform", 8, 100, inj("poisson", 0.1)),  // 100
		patternCell(noc.KindTDM, "uniform", 8, 300, inj("poisson", 0.1)),     // 300, pass 1
	}
	if got, want := cacheRoundNodeCycles(all), uint64(1600+300+1600+100+300); got != want {
		t.Errorf("cache round = %d node-cycles, want %d", got, want)
	}
}

func TestPassCells(t *testing.T) {
	all := sweepCached(7)
	one, idx1 := passCells(all, 1)
	two, idx2 := passCells(all, 2)
	if len(two) != len(all) || len(one) != (len(all)+1)/2 {
		t.Fatalf("pass sizes %d and %d of %d", len(one), len(two), len(all))
	}
	for j, i := range idx1 {
		if i != 2*j || one[j].Scenario.Seed != all[i].Scenario.Seed {
			t.Fatalf("pass 1 cell %d is list cell %d", j, i)
		}
	}
	for j, i := range idx2 {
		if i != j {
			t.Fatalf("pass 2 cell %d is list cell %d", j, i)
		}
	}
}

func TestSeedCells(t *testing.T) {
	a, b, c := sweepCached(1), sweepCached(1), sweepCached(2)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i].Scenario.Seed == 0 {
			t.Fatalf("cell %d has the zero (paper default) seed", i)
		}
		if a[i].Scenario.Seed != b[i].Scenario.Seed {
			t.Fatalf("cell %d: same run seed, different cell seeds", i)
		}
		if a[i].Scenario.Seed == c[i].Scenario.Seed {
			t.Fatalf("cell %d: run seeds 1 and 2 give the same cell seed", i)
		}
		seen[a[i].Scenario.Seed] = true
	}
	if len(seen) != len(a) {
		t.Errorf("%d distinct seeds for %d cells", len(seen), len(a))
	}
}

func TestWorkloadsValidate(t *testing.T) {
	for _, w := range workloads {
		cells := w.cells(3)
		if w.oracle < 0 || w.oracle >= len(cells) {
			t.Errorf("%s: oracle cell %d out of %d", w.name, w.oracle, len(cells))
		}
		idx := make([]int, len(cells))
		for _, g := range groupByFabric(cells, idx) {
			spec := noc.SweepSpec{Fabrics: []noc.FabricSpec{{Kind: g.kind}}, Scenarios: g.scenarios}
			if err := spec.Validate(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestUndisturbedSamples(t *testing.T) {
	p := &phase{roundNC: 100, units: [][]sample{{
		{wall: 1, steal: 0}, {wall: 9, steal: 0.3}, {wall: 2, steal: 0.05}, {wall: 3, steal: 0.1}, {wall: 8, steal: 0.2},
	}}}
	if got := p.rate(func(s sample) float64 { return s.wall }); got != 50 {
		t.Errorf("rate over the undisturbed samples 1, 2, 3 = %v, want 100/2", got)
	}
	if got := p.disturbed(); got != 2 {
		t.Errorf("disturbed = %d, want 2", got)
	}
	few := []sample{{wall: 1, steal: 0}, {wall: 5, steal: 0.5}, {wall: 6, steal: 0.5}}
	if got := undisturbed(few); len(got) != 3 {
		t.Errorf("with fewer than three clean samples all are kept, got %d", len(got))
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true}, // rank 90, ten above
		{99, 90, 0, false},  // rank 90, nine above
		{110, 90, 99, true}, // rank 99, eleven above
		{20, 50, 10, true},  // rank 10, ten above
		{19, 50, 0, false},  // rank 10, nine above
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.wantOK || got != tc.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", tc.p, tc.n, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestCPUTimeDeltas(t *testing.T) {
	ru := syscall.Rusage{Utime: syscall.Timeval{Sec: 1, Usec: 500000}, Stime: syscall.Timeval{Sec: 0, Usec: 250000}}
	if got := rusageCPU(&ru); got != 1.75 {
		t.Errorf("rusageCPU = %v, want 1.75", got)
	}
	m := startMeter()
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i ^ (x >> 3)
	}
	s := m.stop()
	if x == 42 {
		t.Log("unreachable; keeps the loop")
	}
	if s.cpu <= 0 || s.wall <= 0 {
		t.Errorf("a busy loop measured cpu %v s, wall %v s; want both > 0", s.cpu, s.wall)
	}

	a, err := parseCPULine("cpu  100 5 50 800 10 2 3 30 7 0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseCPULine("cpu  150 5 70 900 10 2 3 40 9 0")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 30 {
		t.Errorf("parsed %+v, want total 1000 (guest excluded), steal 30", a)
	}
	if got := stealShare(a, b); got != 10.0/180 {
		t.Errorf("steal share = %v, want %v", got, 10.0/180)
	}
	if got := stealShare(b, b); got != 0 {
		t.Errorf("steal share over no time = %v, want 0", got)
	}
	if _, err := parseCPULine("cpu0 1 2 3 4 5 6 7 8"); err == nil {
		t.Error("a per-core line was accepted as the aggregate")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n")
	if err != nil || got != 50 {
		t.Errorf("parseVmHWM = %v, %v; want 50 MiB", got, err)
	}
	if _, err := parseVmHWM("VmRSS:\t 1024 kB\n"); err == nil {
		t.Error("a status without VmHWM parsed")
	}
}

func TestDirBytes(t *testing.T) {
	dir := t.TempDir()
	write := func(rel string, n int) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a", 100)
	write("ab/cd/e", 4000)
	write("ab/f", 0)
	if err := os.Symlink(filepath.Join(dir, "a"), filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	got, err := dirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4100 {
		t.Errorf("dirBytes = %d, want 4100 (links and directories not counted)", got)
	}
	if _, err := dirBytes(filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing directory sized without error")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "job", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "job", Start: 30, End: 60},    // overlaps job 1
		{ID: 3, Parent: 1, Name: "encode", Start: 45, End: 50}, // after its job: still inside pass
		{ID: 4, Parent: 0, Name: "open", Start: 70},            // never ended: ignored
	}
	got := map[string]spanStat{}
	for _, s := range summarize(spans) {
		got[s.Name] = s
	}
	want := map[string]spanStat{
		"pass":   {Name: "pass", Count: 1, TotalS: 100e-9, SelfS: 50e-9},
		"job":    {Name: "job", Count: 2, TotalS: 60e-9, SelfS: 60e-9},
		"encode": {Name: "encode", Count: 1, TotalS: 5e-9, SelfS: 5e-9},
	}
	if len(got) != len(want) {
		t.Fatalf("summary %v, want %v", got, want)
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || !near(g.TotalS, w.TotalS) || !near(g.SelfS, w.SelfS) {
			t.Errorf("%s: %+v, want %+v", name, g, w)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-15 && d > -1e-15
}
