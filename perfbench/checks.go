package main

import (
	"context"
	"fmt"
)

// checks counts the correctness checks a run attempts and how many fail.
// Every check compares outputs of this build with each other, never with
// stored bytes, so a deliberate change of Result bytes passes them.
type checks struct {
	attempted, failed int
	problems          []string          // the first few failures, for the run record
	hashes            map[string]string // cell key → first output hash seen
}

func newChecks() *checks { return &checks{hashes: map[string]string{}} }

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// cell checks one executed cell: it must not error, must not deliver more
// words than it sent, and must encode to the same bytes every time the
// run executes it. The key separates differently cut copies of a cell.
func (c *checks) cell(key string, o cellOutcome) {
	c.attempted++
	switch {
	case o.Error != "":
		c.fail("%s cell %d: %s", key, o.Index, o.Error)
	case o.Delivered > o.Sent:
		c.fail("%s cell %d: delivered %d > sent %d", key, o.Index, o.Delivered, o.Sent)
	default:
		k := fmt.Sprintf("%s/%d", key, o.Index)
		if prev, ok := c.hashes[k]; !ok {
			c.hashes[k] = o.Hash
		} else if prev != o.Hash {
			c.fail("%s cell %d: output differs between executions", key, o.Index)
		}
	}
}

func (c *checks) run(key string, r sweepRun) {
	for _, o := range r.Cells {
		c.cell(key, o)
	}
}

// oracle runs a shortened copy of the workload's oracle cell under the
// default and the naive kernel and checks that both encode identically.
func (c *checks) oracle(ctx context.Context, w workload, cells []cell) error {
	oc := cutTo(cells[w.oracle:w.oracle+1], w.oracleCycles)
	idx := []int{w.oracle}
	var hashes []string
	for _, kernel := range []string{"", "naive"} {
		r, err := runSweep(ctx, oc, idx, sweepOpts{workers: 1, kernel: kernel, parent: -1})
		if err != nil {
			return fmt.Errorf("oracle cell under kernel %q: %w", kernel, err)
		}
		c.run("oracle-"+kernel, r)
		hashes = append(hashes, r.SHA256)
	}
	c.attempted++
	if hashes[0] != hashes[1] {
		c.fail("oracle cell %d: default kernel output differs from the naive kernel's", w.oracle)
	}
	return nil
}
