package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one finished span: a timed call into a layer. Start and
// End are nanoseconds since the tracer's epoch; Parent 0 marks a root.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Node   int    `json:"node"`
	Detail string `json:"detail,omitempty"` // e.g. the RPC's message type
}

// liveSpan is an open span. End must run on the goroutine that started
// it; every span the benchmark opens is synchronous.
type liveSpan struct {
	rec   spanRec
	gid   uint64 // set for scope spans and for leaves resolved by goroutine
	scope bool   // may enclose other spans
	t     *tracer
}

// tracer keeps spans in memory while it is on and writes them out when
// the run ends. A parent is found, in order, from the span the context
// carries, the innermost open span of the calling goroutine, the most
// recent open scope span (an operation or a served request) of the same
// node, and the most recent open scope span of all. block.Store calls
// carry no context and Bitswap fetches blocks on worker goroutines, so
// the later rules cover them.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu     sync.Mutex
	done   []spanRec
	stacks map[uint64][]*liveSpan
	open   []*liveSpan // every open span, oldest first
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stacks: make(map[uint64][]*liveSpan)}
}

type spanKey struct{}
type opKey struct{}

// withOp tags ctx with the benchmark operation it belongs to.
func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// start opens a leaf span named name on node (-1 for none). ctx may be
// nil; when non-nil the returned context carries the span. It returns a
// nil span while tracing is off.
func (t *tracer) start(ctx context.Context, name string, node int) (context.Context, *liveSpan) {
	return t.startSpan(ctx, name, node, 0, false)
}

// startScope opens a span that may enclose calls made on other
// goroutines; parent 0 resolves the parent as usual.
func (t *tracer) startScope(ctx context.Context, name string, node int, parent int64) (context.Context, *liveSpan) {
	return t.startSpan(ctx, name, node, parent, true)
}

func (t *tracer) startSpan(ctx context.Context, name string, node int, parent int64, scope bool) (context.Context, *liveSpan) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	s := &liveSpan{t: t, scope: scope}
	s.rec = spanRec{ID: t.ids.Add(1), Name: name, Node: node, Start: int64(time.Since(t.epoch))}
	var op int64
	if ctx != nil {
		if p, ok := ctx.Value(spanKey{}).(*liveSpan); ok && parent == 0 {
			parent, op = p.rec.ID, p.rec.Op
		}
		if v, ok := ctx.Value(opKey{}).(int64); ok && op == 0 {
			op = v
		}
	}
	// Only scope spans go on goroutine stacks, and a leaf span needs its
	// goroutine only to find a parent its context did not carry:
	// runtime.Stack is the tracer's largest cost.
	if scope || parent == 0 {
		s.gid = goid()
	}
	t.mu.Lock()
	if parent == 0 {
		if p := t.enclosing(s.gid, node); p != nil {
			parent, op = p.rec.ID, p.rec.Op
		}
	}
	s.rec.Parent, s.rec.Op = parent, op
	if scope {
		t.stacks[s.gid] = append(t.stacks[s.gid], s)
	}
	t.open = append(t.open, s)
	t.mu.Unlock()
	if ctx != nil {
		ctx = context.WithValue(ctx, spanKey{}, s)
	}
	return ctx, s
}

// enclosing picks the parent of a span started without one in its
// context. Called with t.mu held.
func (t *tracer) enclosing(gid uint64, node int) *liveSpan {
	if st := t.stacks[gid]; len(st) > 0 {
		return st[len(st)-1]
	}
	var any *liveSpan
	for i := len(t.open) - 1; i >= 0; i-- {
		o := t.open[i]
		if !o.scope {
			continue
		}
		if node >= 0 && o.rec.Node == node {
			return o
		}
		if any == nil {
			any = o
		}
	}
	return any
}

// id returns the span's id (0 for a nil span).
func (s *liveSpan) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// setDetail annotates an open span.
func (s *liveSpan) setDetail(d string) {
	if s != nil {
		s.rec.Detail = d
	}
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	t := s.t
	s.rec.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	if s.scope {
		t.stacks[s.gid] = removeSpan(t.stacks[s.gid], s)
		if len(t.stacks[s.gid]) == 0 {
			delete(t.stacks, s.gid)
		}
	}
	t.open = removeSpan(t.open, s)
	t.done = append(t.done, s.rec)
	t.mu.Unlock()
}

func removeSpan(list []*liveSpan, s *liveSpan) []*liveSpan {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == s {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// spans returns the finished spans sorted by start.
func (t *tracer) spans() []spanRec {
	t.mu.Lock()
	out := append([]spanRec(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes each span's self time — its duration minus the
// part of it that its children cover — and sums both per span name.
func selfTimes(spans []spanRec) []layerTime {
	children := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		covered := coveredNs(s, children[s.ID])
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.Total += time.Duration(dur)
		a.Self += time.Duration(dur - covered)
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	first := true
	for _, v := range ivs {
		switch {
		case first:
			curA, curB, first = v.a, v.b, false
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if !first {
		total += curB - curA
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayerTable prints the per-span-name totals and self times, per
// operation, largest self time first.
func writeLayerTable(w io.Writer, layers []layerTime, ops int) {
	fmt.Fprintf(w, "# span self time over %d ops\n", ops)
	fmt.Fprintf(w, "%-22s %9s %12s %12s %10s\n", "span", "count", "total_ms/op", "self_ms/op", "self_share")
	var all time.Duration
	for _, l := range layers {
		all += l.Self
	}
	for _, l := range layers {
		fmt.Fprintf(w, "%-22s %9d %12.4f %12.4f %10.4f\n", l.Name, l.Count,
			perOpMs(l.Total, ops), perOpMs(l.Self, ops), ratio(float64(l.Self), float64(all)))
	}
}

func perOpMs(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(ops)
}
