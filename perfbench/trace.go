package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share a trace id; parent is the index of the causing span
// within that trace (-1 for the root). Derived spans are laid out from
// durations the program reports (frontend.Result), not timed here.
type span struct {
	trace   int
	parent  int
	name    string
	start   time.Duration // offset from the run epoch
	end     time.Duration
	derived bool
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int // next trace id
}

func newTracer() *tracer { return &tracer{} }

// newTrace reserves a trace id.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records the spans of one trace; each span's parent indexes the
// slice passed in.
func (t *tracer) add(ss ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// selfStat aggregates the self time of all spans with one name.
type selfStat struct {
	name    string
	count   int
	total   time.Duration // summed span durations
	self    time.Duration // summed self time
	derived bool
}

// selfTimes computes each span's self time — its duration minus the
// part of its interval its children cover — and sums it by name.
// Children are clipped to the parent and overlapping children are
// counted once.
func selfTimes(spans []span) []selfStat {
	byTrace := map[int][]int{}
	for i, s := range spans {
		byTrace[s.trace] = append(byTrace[s.trace], i)
	}
	agg := map[string]*selfStat{}
	for _, idx := range byTrace {
		// Parents index into the trace's own span list, in the order added.
		local := make([]span, len(idx))
		for k, i := range idx {
			local[k] = spans[i]
		}
		children := make([][]span, len(local))
		for _, s := range local {
			if s.parent >= 0 && s.parent < len(local) {
				children[s.parent] = append(children[s.parent], s)
			}
		}
		for k, s := range local {
			st := agg[s.name]
			if st == nil {
				st = &selfStat{name: s.name, derived: s.derived}
				agg[s.name] = st
			}
			d := s.end - s.start
			st.count++
			st.total += d
			st.self += d - covered(s, children[k])
		}
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, stats []selfStat) {
	var all time.Duration
	for _, s := range stats {
		all += s.self
	}
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %7s\n", "span", "count", "self_ms", "mean_self_us", "share")
	for _, s := range stats {
		tag := ""
		if s.derived {
			tag = "  (from Result durations)"
		}
		fmt.Fprintf(w, "  %-22s %8d %12.1f %12.1f %6.1f%%%s\n", s.name, s.count,
			ms(s.self), us(s.self)/float64(s.count), 100*ratio(float64(s.self), float64(all)), tag)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
