package core

import (
	"fmt"

	"repro/internal/bitvec"
)

// LaneSel is the configuration of one crossbar output lane: which foreign
// input lane it listens to (a relative index over the other ports' lanes)
// and whether the lane is active at all. Per output lane the configuration
// memory stores SelBits+1 bits (5 in the paper; 5×20 = 100 bits total).
type LaneSel struct {
	// Enable is the activation bit. A disabled lane drives zero and, with
	// clock gating (Section 7.3), its output register is not clocked.
	Enable bool
	// In is the relative index of the selected input lane, 0..ForeignLanes-1.
	In int
}

// ConfigCmd is one 10-bit configuration command as generated by the CCN
// ("Configuration of 1 lane requires 10 bits"): the output lane address
// plus its new LaneSel. Commands arrive over the best-effort network via
// the router's small configuration interface.
type ConfigCmd struct {
	// Out is the global output lane index being configured.
	Out int
	// Sel is the new configuration of that lane.
	Sel LaneSel
}

// Encode packs the command into its wire format. Layout (LSB first):
// [laneBits: output lane][SelBits: input select][1: enable]. With the
// paper's parameters this is 5+4+1 = 10 bits.
func (c ConfigCmd) Encode(p Params) (uint32, error) {
	if c.Out < 0 || c.Out >= p.TotalLanes() {
		return 0, fmt.Errorf("core: config output lane %d out of range", c.Out)
	}
	if c.Sel.In < 0 || c.Sel.In >= p.ForeignLanes() {
		return 0, fmt.Errorf("core: config input select %d out of range", c.Sel.In)
	}
	laneBits := p.ConfigWordBits() - p.ConfigBitsPerLane()
	w := uint32(c.Out)
	w |= uint32(c.Sel.In) << uint(laneBits)
	if c.Sel.Enable {
		w |= 1 << uint(laneBits+p.SelBits())
	}
	return w, nil
}

// DecodeConfigCmd unpacks a configuration command.
func DecodeConfigCmd(p Params, w uint32) (ConfigCmd, error) {
	laneBits := p.ConfigWordBits() - p.ConfigBitsPerLane()
	if w >= 1<<uint(p.ConfigWordBits()) {
		return ConfigCmd{}, fmt.Errorf("core: config word %#x wider than %d bits",
			w, p.ConfigWordBits())
	}
	c := ConfigCmd{
		Out: int(w & (1<<uint(laneBits) - 1)),
		Sel: LaneSel{
			In:     int(w >> uint(laneBits) & (1<<uint(p.SelBits()) - 1)),
			Enable: w>>uint(laneBits+p.SelBits())&1 == 1,
		},
	}
	if c.Out >= p.TotalLanes() {
		return ConfigCmd{}, fmt.Errorf("core: config output lane %d out of range", c.Out)
	}
	if c.Sel.In >= p.ForeignLanes() {
		return ConfigCmd{}, fmt.Errorf("core: config input select %d out of range", c.Sel.In)
	}
	return c, nil
}

// noSource marks a disabled output lane in the configuration's source
// table.
const noSource = -1

// laneEntry is one output lane of the configuration memory: the select
// field as written — part of the bit image even while the lane is
// disabled — and the global input lane it resolves to, or noSource when
// the lane is disabled. The resolved source is the crossbar's per-cycle
// view of the memory; it is written only by SetLane.
type laneEntry struct {
	in  int16
	src int16
}

// Config is the router's configuration memory: one LaneSel per output lane.
type Config struct {
	p     Params
	lanes []laneEntry
}

// NewConfig returns an all-disabled configuration memory.
func NewConfig(p Params) *Config {
	c := &Config{p: p, lanes: make([]laneEntry, p.TotalLanes())}
	for g := range c.lanes {
		c.lanes[g].src = noSource
	}
	return c
}

// Lane returns the configuration of output lane g.
func (c *Config) Lane(g int) LaneSel {
	e := c.lanes[g]
	return LaneSel{Enable: e.src != noSource, In: int(e.in)}
}

// SetLane stores the configuration of output lane g and resolves its
// select to the global input lane the crossbar reads.
func (c *Config) SetLane(g int, s LaneSel) {
	if s.In < 0 || s.In >= c.p.ForeignLanes() {
		panic(fmt.Sprintf("core: select %d out of range", s.In))
	}
	e := laneEntry{in: int16(s.In), src: noSource}
	if s.Enable {
		e.src = int16(c.p.InputLane(c.p.LaneOf(g).Port, s.In))
	}
	c.lanes[g] = e
}

// Apply executes a configuration command.
func (c *Config) Apply(cmd ConfigCmd) { c.SetLane(cmd.Out, cmd.Sel) }

// EnabledLanes returns the number of active output lanes, which drives the
// clock-gating power model.
func (c *Config) EnabledLanes() int {
	n := 0
	for _, e := range c.lanes {
		if e.src != noSource {
			n++
		}
	}
	return n
}

// InputFor returns the global input lane feeding output lane g and whether
// the lane is enabled.
func (c *Config) InputFor(g int) (int, bool) {
	src := c.lanes[g].src
	if src == noSource {
		return 0, false
	}
	return int(src), true
}

// Bits renders the configuration memory as its hardware bit image
// (ConfigBitsPerLane bits per output lane, lane 0 first), used to count
// configuration register toggles during reconfiguration and to verify the
// 100-bit size of the paper.
func (c *Config) Bits() *bitvec.Vec {
	per := c.p.ConfigBitsPerLane()
	v := bitvec.New(c.p.ConfigBits())
	for g, e := range c.lanes {
		f := uint64(e.in)
		if e.src != noSource {
			f |= 1 << uint(c.p.SelBits())
		}
		v.SetField(g*per, per, f)
	}
	return v
}

// Copy returns a deep copy of the configuration.
func (c *Config) Copy() *Config {
	n := NewConfig(c.p)
	copy(n.lanes, c.lanes)
	return n
}

// Circuit is a fully specified connection through one router: data entering
// on In leaves on Out. It is the unit the CCN allocates along a path.
type Circuit struct {
	// In is the input lane the data arrives on.
	In LaneID
	// Out is the output lane the data leaves on.
	Out LaneID
}

// Cmd translates the circuit into the configuration command that realizes
// it, or an error if In and Out share a port.
func (cc Circuit) Cmd(p Params) (ConfigCmd, error) {
	rel, err := p.RelIndex(cc.Out.Port, cc.In)
	if err != nil {
		return ConfigCmd{}, err
	}
	return ConfigCmd{Out: p.Global(cc.Out), Sel: LaneSel{Enable: true, In: rel}}, nil
}
