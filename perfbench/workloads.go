package main

import (
	"fmt"
	"strings"

	"repro/noc"
)

// cell is one fabric × scenario run of a workload.
type cell struct {
	Fabric   noc.Kind
	Scenario noc.Scenario
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// workers is the sweep worker count; cached selects the two-process
	// cache round instead of timing cells one by one.
	workers int
	cached  bool
	// cells builds the workload's cell list from the run seed.
	cells func(seed uint64) []cell
	// oracle names the cell whose shortened copy is compared against the
	// naive kernel, and oracleCycles the length it is cut to.
	oracle       int
	oracleCycles int
}

var workloads = []workload{
	{name: "mesh-dense", workers: 1, cells: meshDense, oracle: 0, oracleCycles: 200},
	{name: "mesh-sparse", workers: 1, cells: meshSparse, oracle: 2, oracleCycles: 300},
	{name: "sweep-cached", workers: 2, cached: true, cells: sweepCached, oracle: 192, oracleCycles: 100},
	{name: "pattern-setup", workers: 1, cells: patternSetup, oracle: 0, oracleCycles: 100},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// mix64 is a SplitMix64 step: it spreads the run seed over the cells.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// seedCells gives every cell an explicit non-zero seed derived from the
// run seed and the cell's position in the full list. Explicit seeds keep
// a cell's cache key independent of which other cells share its sweep.
func seedCells(seed uint64, cells []cell) []cell {
	for i := range cells {
		s := mix64(seed ^ mix64(uint64(i)+1))
		if s == 0 {
			s = 1
		}
		cells[i].Scenario.Seed = s
	}
	return cells
}

func inj(process string, rate float64) *noc.Injection {
	return &noc.Injection{Process: process, Rate: rate}
}

func patternCell(kind noc.Kind, pat string, size, cycles int, in *noc.Injection) cell {
	return cell{Fabric: kind, Scenario: noc.Scenario{
		Name:    fmt.Sprintf("%s/%dx%d/%s/%d", pat, size, size, in.Process, cycles),
		Pattern: pat, MeshWidth: size, MeshHeight: size, Cycles: cycles, Injection: in,
	}}
}

// meshDense: a 16×16 circuit mesh under continuous uniform and transpose
// traffic at injection rates that saturate the lanes, so nearly every
// router works every cycle.
func meshDense(seed uint64) []cell {
	return seedCells(seed, []cell{
		patternCell(noc.KindCircuit, "uniform", 16, 1000, inj("bernoulli", 0.6)),
		patternCell(noc.KindCircuit, "uniform", 16, 1000, inj("poisson", 0.9)),
		patternCell(noc.KindCircuit, "transpose", 16, 1000, inj("bernoulli", 0.6)),
		patternCell(noc.KindCircuit, "transpose", 16, 1000, inj("poisson", 0.9)),
	})
}

// meshSparse: 64×64 hotspot traffic at a low rate, where most routers
// sleep and the kernel polls them, beside 32×32 finite bursts that drain
// and idle, where fast-forward covers most cycles.
func meshSparse(seed uint64) []cell {
	var cells []cell
	for _, rate := range []float64{0.01, 0.02} {
		cells = append(cells, patternCell(noc.KindCircuit, "hotspot:1", 64, 3000, inj("poisson", rate)))
	}
	for _, pat := range []string{"uniform", "transpose", "bitcomp", "neighbour"} {
		c := patternCell(noc.KindCircuit, pat, 32, 20000, inj("poisson", 0.2))
		c.Scenario.WordsPerStream = 8
		c.Scenario.Name += "/burst8"
		cells = append(cells, c)
	}
	return seedCells(seed, cells)
}

// sweepCached: a few hundred short cells on all three fabrics — the
// paper's single-router scenarios over loads and two run lengths, 8×8
// pattern projections on the packet and TDM fabrics, and 4×4 circuit
// pattern cells over the cycles axis.
func sweepCached(seed uint64) []cell {
	var cells []cell
	for _, name := range []string{"I", "II", "III", "IV"} {
		base, err := noc.PaperScenario(name)
		if err != nil {
			panic(err) // the four paper scenarios always exist
		}
		for _, load := range []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1} {
			for _, cycles := range []int{500, 2000} {
				sc := base
				sc.Name = fmt.Sprintf("%s/load%g/%d", name, load, cycles)
				sc.Data = noc.DefaultPattern()
				sc.Data.Load = load
				sc.Cycles = cycles
				for _, k := range []noc.Kind{noc.KindCircuit, noc.KindPacket, noc.KindTDM} {
					cells = append(cells, cell{Fabric: k, Scenario: sc})
				}
			}
		}
	}
	for _, pat := range []string{"uniform", "hotspot", "transpose", "bitcomp", "bitrev", "neighbour"} {
		for _, rate := range []float64{0.05, 0.1, 0.2, 0.4} {
			for _, k := range []noc.Kind{noc.KindPacket, noc.KindTDM} {
				cells = append(cells, patternCell(k, pat, 8, 1000, inj("poisson", rate)))
			}
		}
	}
	for _, pat := range []string{"uniform", "transpose", "hotspot", "neighbour"} {
		for _, rate := range []float64{0.1, 0.3} {
			for _, cycles := range []int{250, 500, 1000} {
				cells = append(cells, patternCell(noc.KindCircuit, pat, 4, cycles, inj("poisson", rate)))
			}
		}
	}
	return seedCells(seed, cells)
}

// patternSetup: the `nocbench -pattern` path at 32×32 and 48×48 for a few
// hundred cycles, where projecting the pattern onto the packet and TDM
// routers, building the mesh and allocating lanes cost more than
// simulating.
func patternSetup(seed uint64) []cell {
	var cells []cell
	for _, size := range []int{32, 48} {
		for _, pat := range []string{"uniform", "hotspot", "transpose"} {
			for _, k := range []noc.Kind{noc.KindCircuit, noc.KindPacket, noc.KindTDM} {
				cells = append(cells, patternCell(k, pat, size, 300, inj("poisson", 0.05)))
			}
		}
	}
	return seedCells(seed, cells)
}

// nodeCycles is the router-cycles a cell simulates: every router of a
// circuit mesh (pattern or workload run) counts, while the packet and
// TDM fabrics and the paper's scenarios model a single router.
func nodeCycles(c cell) uint64 {
	sc := c.Scenario
	routers := 1
	if c.Fabric == noc.KindCircuit && (sc.IsPattern() || sc.IsWorkload()) {
		routers = sc.MeshWidth * sc.MeshHeight
	}
	return uint64(routers) * uint64(sc.Cycles)
}

func roundNodeCycles(cells []cell) uint64 {
	var n uint64
	for _, c := range cells {
		n += nodeCycles(c)
	}
	return n
}

// cutTo returns the cells with every run shortened to at most n cycles.
func cutTo(cells []cell, n int) []cell {
	out := append([]cell(nil), cells...)
	for i := range out {
		out[i].Scenario.Cycles = min(out[i].Scenario.Cycles, n)
	}
	return out
}
