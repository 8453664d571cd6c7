package core

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements sim.Snapshotter for the circuit-switched router
// assembly and its parts — the component side of the warm-start
// checkpoint layer. Only dynamic state is serialized: registers, staged
// commands, counters, buffers and the bound meter's accumulators.
// Everything fixed at construction time (parameters, wiring, flow
// configuration) is reproduced by rebuilding the assembly from the same
// configuration before Restore.

// Snapshot appends the configuration memory's lane selects.
func (c *Config) Snapshot(buf []byte) []byte {
	for g := range c.lanes {
		s := c.Lane(g)
		buf = sim.AppendBool(buf, s.Enable)
		buf = sim.AppendU64(buf, uint64(s.In))
	}
	return buf
}

// Restore is the inverse of Snapshot; it returns the unread remainder.
func (c *Config) Restore(data []byte) ([]byte, error) {
	var err error
	for g := range c.lanes {
		var s LaneSel
		if s.Enable, data, err = sim.ReadBool(data); err != nil {
			return nil, err
		}
		var in uint64
		if in, data, err = sim.ReadU64(data); err != nil {
			return nil, err
		}
		if in >= uint64(c.p.ForeignLanes()) {
			return nil, fmt.Errorf("core: snapshot lane select %d out of range", in)
		}
		s.In = int(in)
		c.SetLane(g, s)
	}
	return data, nil
}

// Snapshot implements sim.Snapshotter for the router: output and
// acknowledgement registers, configuration memory, staged configuration
// commands, traffic statistics and the activity-tracking flags.
func (r *Router) Snapshot(buf []byte) []byte {
	for _, v := range r.Out {
		buf = append(buf, v)
	}
	for _, v := range r.AckOut {
		buf = sim.AppendBool(buf, v)
	}
	buf = r.cfg.Snapshot(buf)
	buf = sim.AppendU64(buf, uint64(len(r.cfgPending)))
	for _, cmd := range r.cfgPending {
		buf = sim.AppendU64(buf, uint64(cmd.Out))
		buf = sim.AppendBool(buf, cmd.Sel.Enable)
		buf = sim.AppendU64(buf, uint64(cmd.Sel.In))
	}
	buf = sim.AppendU64(buf, r.statsWords)
	buf = sim.AppendBool(buf, r.outDirty)
	return buf
}

// Restore implements sim.Snapshotter. The derived active-lane count is
// recomputed from the restored configuration.
func (r *Router) Restore(data []byte) ([]byte, error) {
	n := r.P.TotalLanes()
	if len(data) < n {
		return nil, fmt.Errorf("core: router snapshot truncated")
	}
	copy(r.Out, data[:n])
	data = data[n:]
	var err error
	for g := range r.AckOut {
		if r.AckOut[g], data, err = sim.ReadBool(data); err != nil {
			return nil, err
		}
	}
	if data, err = r.cfg.Restore(data); err != nil {
		return nil, err
	}
	var pending uint64
	if pending, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.cfgPending = r.cfgPending[:0]
	for i := uint64(0); i < pending; i++ {
		var cmd ConfigCmd
		var out, in uint64
		if out, data, err = sim.ReadU64(data); err != nil {
			return nil, err
		}
		if cmd.Sel.Enable, data, err = sim.ReadBool(data); err != nil {
			return nil, err
		}
		if in, data, err = sim.ReadU64(data); err != nil {
			return nil, err
		}
		cmd.Out, cmd.Sel.In = int(out), int(in)
		if cmd.Out < 0 || cmd.Out >= n {
			return nil, fmt.Errorf("core: snapshot staged config lane %d out of range", cmd.Out)
		}
		r.cfgPending = append(r.cfgPending, cmd)
	}
	if r.statsWords, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	if r.outDirty, data, err = sim.ReadBool(data); err != nil {
		return nil, err
	}
	r.activeLanes = r.cfg.EnabledLanes()
	return data, nil
}

// snapshotOptWord appends an optional staged word.
func snapshotOptWord(buf []byte, w Word, ok bool) []byte {
	buf = sim.AppendBool(buf, ok)
	if ok {
		buf = sim.AppendU64(buf, uint64(w.Pack()))
	}
	return buf
}

// restoreOptWord reads an optional staged word.
func restoreOptWord(data []byte) (Word, bool, []byte, error) {
	ok, data, err := sim.ReadBool(data)
	if err != nil || !ok {
		return Word{}, false, data, err
	}
	p, data, err := sim.ReadU64(data)
	if err != nil {
		return Word{}, false, nil, err
	}
	return Unpack(uint32(p)), true, data, nil
}

// Snapshot implements sim.Snapshotter for the transmit converter.
func (t *TxConverter) Snapshot(buf []byte) []byte {
	buf = append(buf, t.Out)
	buf = sim.AppendBool(buf, t.Enabled)
	buf = sim.AppendU64(buf, uint64(t.shift))
	buf = sim.AppendU64(buf, uint64(t.cnt))
	buf = sim.AppendU64(buf, uint64(int64(t.wc)))
	buf = snapshotOptWord(buf, t.pending, t.hasPending)
	buf = snapshotOptWord(buf, t.staged, t.hasStaged)
	buf = sim.AppendU64(buf, t.sent)
	buf = sim.AppendU64(buf, t.stalledCount)
	buf = sim.AppendU64(buf, t.wcViolations)
	return buf
}

// Restore implements sim.Snapshotter.
func (t *TxConverter) Restore(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("core: tx snapshot truncated")
	}
	t.Out, data = data[0], data[1:]
	var err error
	if t.Enabled, data, err = sim.ReadBool(data); err != nil {
		return nil, err
	}
	var u uint64
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	t.shift = uint32(u)
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	t.cnt = int(u)
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	t.wc = int(int64(u))
	if t.pending, t.hasPending, data, err = restoreOptWord(data); err != nil {
		return nil, err
	}
	if t.staged, t.hasStaged, data, err = restoreOptWord(data); err != nil {
		return nil, err
	}
	if t.sent, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	if t.stalledCount, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	if t.wcViolations, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	return data, nil
}

// Snapshot implements sim.Snapshotter for the receive converter.
func (r *RxConverter) Snapshot(buf []byte) []byte {
	buf = sim.AppendBool(buf, r.AckOut)
	buf = sim.AppendBool(buf, r.Enabled)
	buf = sim.AppendU64(buf, uint64(r.acc))
	buf = sim.AppendU64(buf, uint64(r.cnt))
	buf = sim.AppendU64(buf, uint64(len(r.buf)))
	for _, w := range r.buf {
		buf = sim.AppendU64(buf, uint64(w.Pack()))
	}
	buf = sim.AppendU64(buf, uint64(r.unacked))
	buf = sim.AppendU64(buf, uint64(r.ackHigh))
	buf = sim.AppendU64(buf, r.received)
	buf = sim.AppendU64(buf, r.dropped)
	buf = sim.AppendU64(buf, uint64(r.popN))
	return buf
}

// Restore implements sim.Snapshotter.
func (r *RxConverter) Restore(data []byte) ([]byte, error) {
	var err error
	if r.AckOut, data, err = sim.ReadBool(data); err != nil {
		return nil, err
	}
	if r.Enabled, data, err = sim.ReadBool(data); err != nil {
		return nil, err
	}
	var u uint64
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.acc = uint32(u)
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.cnt = int(u)
	var nbuf uint64
	if nbuf, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.buf = r.buf[:0]
	for i := uint64(0); i < nbuf; i++ {
		if u, data, err = sim.ReadU64(data); err != nil {
			return nil, err
		}
		r.buf = append(r.buf, Unpack(uint32(u)))
	}
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.unacked = int(u)
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.ackHigh = int(u)
	if r.received, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	if r.dropped, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	if u, data, err = sim.ReadU64(data); err != nil {
		return nil, err
	}
	r.popN = int(u)
	return data, nil
}

// Snapshot implements sim.Snapshotter for the whole assembly: the router,
// every converter, the sleep latch and — when a meter is bound — the
// meter's accumulators. The gated-clock idle cache is not serialized; it
// revalidates itself against the restored enable masks on first use.
func (a *Assembly) Snapshot(buf []byte) []byte {
	buf = a.R.Snapshot(buf)
	for _, tx := range a.Tx {
		buf = tx.Snapshot(buf)
	}
	for _, rx := range a.Rx {
		buf = rx.Snapshot(buf)
	}
	buf = sim.AppendBool(buf, a.asleep)
	buf = sim.AppendBool(buf, a.meter != nil)
	if a.meter != nil {
		buf = a.meter.Snapshot(buf)
	}
	return buf
}

// Restore implements sim.Snapshotter.
func (a *Assembly) Restore(data []byte) ([]byte, error) {
	var err error
	if data, err = a.R.Restore(data); err != nil {
		return nil, err
	}
	for _, tx := range a.Tx {
		if data, err = tx.Restore(data); err != nil {
			return nil, err
		}
	}
	for _, rx := range a.Rx {
		if data, err = rx.Restore(data); err != nil {
			return nil, err
		}
	}
	if a.asleep, data, err = sim.ReadBool(data); err != nil {
		return nil, err
	}
	var metered bool
	if metered, data, err = sim.ReadBool(data); err != nil {
		return nil, err
	}
	if metered != (a.meter != nil) {
		return nil, fmt.Errorf("core: snapshot metered=%v, assembly metered=%v", metered, a.meter != nil)
	}
	if a.meter != nil {
		if data, err = a.meter.Restore(data); err != nil {
			return nil, err
		}
	}
	a.idleFJOK = false // revalidate the gated-clock cache lazily
	return data, nil
}

var _ sim.Snapshotter = (*Assembly)(nil)
