package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed step of the benchmark: a call into one layer of the
// program. Times are Unix nanoseconds, so spans recorded by the sweep
// child processes merge with the parent's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  string `json:"trace"`  // shared by every span of one run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs take the same code paths.
type tracer struct {
	trace string
	mu    sync.Mutex
	spans []span
}

func newTracer(trace string) *tracer { return &tracer{trace: trace} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// graft adopts spans recorded elsewhere (a child process), renumbering
// them and hanging their roots under parent.
func (t *tracer) graft(spans []span, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Trace = t.trace
		t.spans = append(t.spans, s)
	}
}

// durations returns the lengths in seconds of the spans with this name
// opened after cut (a Unix-nanosecond time).
func (t *tracer) durations(name string, cut int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= cut && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// jobMonitor turns the sweep engine's worker callbacks into job spans.
type jobMonitor struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	open   map[int]int // job index → span id
	last   map[int]int // job index → most recent span id
}

func (m *jobMonitor) reset() {
	m.mu.Lock()
	m.open, m.last = map[int]int{}, map[int]int{}
	m.mu.Unlock()
}

func (m *jobMonitor) JobStart(_, job int) {
	id := m.tr.begin("job", m.parent)
	m.mu.Lock()
	m.open[job], m.last[job] = id, id
	m.mu.Unlock()
}

func (m *jobMonitor) JobDone(_, job int) {
	m.mu.Lock()
	id, ok := m.open[job]
	delete(m.open, job)
	m.mu.Unlock()
	if ok {
		m.tr.end(id)
	}
}

// jobSpan is the span of the job that produced a cell; the sweep span for
// a cell served from the cache, which never reaches a worker.
func (m *jobMonitor) jobSpan(job int) int {
	if m.tr == nil {
		return -1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if id, ok := m.last[job]; ok {
		return id
	}
	return m.parent
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize gives each span name's count, total and self time. A span's
// self time is its duration minus the part of it its descendants cover.
func summarize(spans []span) []spanStat {
	kids := map[int][]int{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		var ivs [][2]int64
		stack := append([]int(nil), kids[s.ID]...)
		for len(stack) > 0 {
			d := spans[stack[len(stack)-1]]
			stack = append(stack[:len(stack)-1], kids[d.ID]...)
			if d.End > 0 {
				ivs = append(ivs, [2]int64{max(d.Start, s.Start), min(d.End, s.End)})
			}
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalS += float64(dur) / 1e9
		st.SelfS += float64(dur-covered(ivs)) / 1e9
	}
	sort.Strings(names)
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the total length of the union of the intervals; empty or
// inverted intervals count nothing.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	first := true
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case first || iv[0] >= end:
			total += iv[1] - iv[0]
			end = iv[1]
			first = false
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// write stores the spans and their summary as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Summary []spanStat `json:"summary"`
		Spans   []span     `json:"spans"`
	}{summarize(t.spans), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
