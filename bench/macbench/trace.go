package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// trace id; the operation's root span has no parent and is named after
// the workload. Times are nanoseconds since the tracer's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so every pass runs the same code traced
// and untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id returns a fresh span or trace id (0 when not tracing).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(trace, id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON line to dir/spans.jsonl.
func (t *tracer) writeSpans(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// breakdown splits the time of a set of operations between the spans
// under their roots. Total is the summed duration of the root spans;
// Self maps each non-root span name to the time attributed to it, and
// Remainder is root time no span covers. Self and Remainder add up to
// Total exactly.
type breakdown struct {
	Ops       int
	Total     float64 // ns
	Self      map[string]float64
	Remainder float64
}

// attribute computes the breakdown of the given spans. A span's self
// time is its duration minus the part its child spans cover. Where
// sibling spans overlap in time — parallel workers, or a client span
// beside a server span — each instant is split evenly between the
// innermost spans active at it, so the parts still add up to the
// operation's duration. Spans are clipped to their parent's interval.
func attribute(spans []span) breakdown {
	b := breakdown{Self: map[string]float64{}}
	byTrace := map[uint64][]span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, ss := range byTrace {
		attributeTrace(ss, &b)
	}
	return b
}

func attributeTrace(ss []span, b *breakdown) {
	byID := make(map[uint64]*span, len(ss))
	var root *span
	for i := range ss {
		byID[ss[i].ID] = &ss[i]
		if ss[i].Parent == 0 && root == nil {
			root = &ss[i]
		}
	}
	if root == nil || root.End <= root.Start {
		return
	}
	// Clip every span into its parent's interval, parents first.
	clipped := map[uint64]bool{root.ID: true}
	var clip func(s *span) bool
	clip = func(s *span) bool {
		if clipped[s.ID] {
			return true
		}
		p, ok := byID[s.Parent]
		if !ok || p == s || !clip(p) {
			return false // orphan or cycle: ignored
		}
		clipped[s.ID] = true
		s.Start = max(s.Start, p.Start)
		s.End = min(s.End, p.End)
		return true
	}
	type edge struct {
		t     int64
		s     *span
		start bool
	}
	var edges []edge
	for i := range ss {
		s := &ss[i]
		if !clip(s) || s.End <= s.Start {
			continue
		}
		edges = append(edges, edge{s.Start, s, true}, edge{s.End, s, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })

	b.Ops++
	b.Total += float64(root.End - root.Start)
	active := map[*span]bool{}
	children := map[uint64]int{} // active children per span id
	prev := root.Start
	for _, e := range edges {
		if dt := e.t - prev; dt > 0 && len(active) > 0 {
			var leaves []*span
			for s := range active {
				if children[s.ID] == 0 {
					leaves = append(leaves, s)
				}
			}
			share := float64(dt) / float64(len(leaves))
			for _, s := range leaves {
				if s == root {
					b.Remainder += share
				} else {
					b.Self[s.Name] += share
				}
			}
		}
		prev = e.t
		if e.start {
			active[e.s] = true
			if e.s != root {
				children[e.s.Parent]++
			}
		} else {
			delete(active, e.s)
			if e.s != root {
				children[e.s.Parent]--
			}
		}
	}
}

// passReport is one traced pass: its spans' breakdown and, for the
// pass of the selected workload, the same pass's untraced cost.
type passReport struct {
	name      string
	spans     []span
	cost      float64 // per-operation cost of the traced pass, ns
	untraced  float64 // the same cost measured untraced; 0 if not measured
	costLabel string
}

// printBreakdown writes one pass's layer table: self time and share per
// span name, the remainder, and the total they add up to.
func printBreakdown(w io.Writer, p passReport) {
	b := attribute(p.spans)
	fmt.Fprintf(w, "trace %s: %d ops, total %.3f ms\n", p.name, b.Ops, b.Total/1e6)
	names := make([]string, 0, len(b.Self))
	for n := range b.Self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return b.Self[names[i]] > b.Self[names[j]] })
	share := func(v float64) float64 {
		if b.Total == 0 {
			return 0
		}
		return 100 * v / b.Total
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f ms %6.1f%%\n", n, b.Self[n]/1e6, share(b.Self[n]))
	}
	fmt.Fprintf(w, "  %-28s %12.3f ms %6.1f%%\n", "(remainder)", b.Remainder/1e6, share(b.Remainder))
	if p.untraced > 0 {
		fmt.Fprintf(w, "  tracing overhead: %+.1f%% (%s %.3f ms traced, %.3f ms untraced)\n",
			100*(p.cost/p.untraced-1), p.costLabel, p.cost/1e6, p.untraced/1e6)
	}
}
