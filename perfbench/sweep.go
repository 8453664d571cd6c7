package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
	"repro/noc"
)

// cellOutcome is what the checks need from one executed cell.
type cellOutcome struct {
	Index     int    `json:"index"` // position in the workload's full cell list
	Hash      string `json:"hash"`  // SHA-256 of the cell's encoded output
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Error     string `json:"error,omitempty"`
}

// sweepRun is one noc.Sweep call over some of a workload's cells.
type sweepRun struct {
	Cells       []cellOutcome `json:"cells"`
	SHA256      string        `json:"sha256"` // of the whole encoded output
	OutputBytes int           `json:"output_bytes"`
	EncodeS     float64       `json:"encode_s"`
	SweepS      float64       `json:"sweep_s"`
}

// sweepOpts configures one sweep call.
type sweepOpts struct {
	workers  int
	cacheDir string // "" runs without the cache
	kernel   string // "" is the default kernel
	tr       *tracer
	parent   int           // span the sweep's spans hang under
	metrics  *obs.Registry // the program's own registry; nil when untraced
	sink     io.Writer     // receives the encoded output when non-nil
}

// runSweep runs the cells (whose positions in the full list are idx)
// through noc.Sweep and encodes each result as `nocbench -sweep` does.
func runSweep(ctx context.Context, cells []cell, idx []int, o sweepOpts) (sweepRun, error) {
	spec := noc.SweepSpec{Workers: o.workers, Kernel: o.kernel, CacheDir: o.cacheDir}
	var out sweepRun
	h := sha256.New()
	sweepSpan := o.tr.begin("sweep", o.parent)
	defer o.tr.end(sweepSpan)
	mon := &jobMonitor{tr: o.tr, parent: sweepSpan}
	if o.tr != nil {
		spec.Obs = noc.SweepObs{Monitor: mon, Metrics: o.metrics}
	}
	start := time.Now()
	for _, g := range groupByFabric(cells, idx) {
		spec.Fabrics = []noc.FabricSpec{{Kind: g.kind}}
		spec.Scenarios = g.scenarios
		mon.reset()
		err := noc.Sweep(ctx, spec, func(sc noc.SweepCell) error {
			full := g.idx[sc.Index]
			span := o.tr.begin("encode", mon.jobSpan(sc.Index))
			t := time.Now()
			sc.Index = full
			b, err := json.MarshalIndent(sc, "  ", "  ")
			out.EncodeS += time.Since(t).Seconds()
			o.tr.end(span)
			if err != nil {
				return err
			}
			h.Write(b)
			if o.sink != nil {
				if _, err := o.sink.Write(b); err != nil {
					return err
				}
			}
			out.OutputBytes += len(b)
			oc := cellOutcome{Index: full, Hash: hashHex(b), Error: sc.Error}
			if r := sc.Result; r != nil {
				oc.Sent, oc.Delivered = r.WordsSent, r.WordsDelivered
			}
			out.Cells = append(out.Cells, oc)
			return nil
		})
		if err != nil {
			return sweepRun{}, err
		}
	}
	out.SweepS = time.Since(start).Seconds()
	out.SHA256 = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// fabricGroup is the cells of one fabric: a SweepSpec crosses its
// fabrics with every scenario, so each fabric gets its own sweep.
type fabricGroup struct {
	kind      noc.Kind
	scenarios []noc.Scenario
	idx       []int
}

// groupByFabric splits the cells by fabric, in order of first appearance.
func groupByFabric(cells []cell, idx []int) []fabricGroup {
	var gs []fabricGroup
	pos := map[noc.Kind]int{}
	for i, c := range cells {
		p, ok := pos[c.Fabric]
		if !ok {
			p = len(gs)
			pos[c.Fabric] = p
			gs = append(gs, fabricGroup{kind: c.Fabric})
		}
		gs[p].scenarios = append(gs[p].scenarios, c.Scenario)
		gs[p].idx = append(gs[p].idx, idx[i])
	}
	return gs
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
