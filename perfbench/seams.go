package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// probe is the traced run's instrumentation: the tracer plus the counts
// the wrapped seams take at each call. Wrappers forward untouched while
// the tracer is off, so one set of nodes serves both the untraced and
// the traced phase of a traced run.
type probe struct {
	t *tracer

	mu           sync.Mutex
	rpcs         int64
	connWaits    int64
	rpcUs        sample
	dials        int64
	dialMs       sample
	handlerDHT   sample // µs
	handlerSwap  sample // µs
	wireBytes    int64
	wireSample   []wire.Message
	blockGets    int64
	blockPuts    int64
	getUs, putUs sample
	lruGets      int64
	lruHits      int64
	serveUs      sample

	inflightMu sync.Mutex
	inflight   map[[2]peer.ID][]int64 // dialer→listener: open request spans

	ops atomic.Int64 // operation ids handed out by the HTTP wrapper
}

// wireSampleEvery and wireSampleCap bound the messages kept for the
// codec replay: every 16th RPC, at most 4096 messages.
const (
	wireSampleEvery = 16
	wireSampleCap   = 4096
)

func newProbe(t *tracer) *probe {
	return &probe{t: t, inflight: make(map[[2]peer.ID][]int64)}
}

func (p *probe) active() bool { return p != nil && p.t.on.Load() }

func (p *probe) pushInflight(key [2]peer.ID, id int64) {
	p.inflightMu.Lock()
	p.inflight[key] = append(p.inflight[key], id)
	p.inflightMu.Unlock()
}

func (p *probe) popInflight(key [2]peer.ID, id int64) {
	p.inflightMu.Lock()
	list := p.inflight[key]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == id {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(p.inflight, key)
	} else {
		p.inflight[key] = list
	}
	p.inflightMu.Unlock()
}

// requestSpan returns the open request span a handler on to is serving
// for from. The TCP transport serializes RPCs per connection, so the
// oldest open request on that connection is the one being served.
func (p *probe) requestSpan(from, to peer.ID) int64 {
	p.inflightMu.Lock()
	defer p.inflightMu.Unlock()
	if list := p.inflight[[2]peer.ID{from, to}]; len(list) > 0 {
		return list[0]
	}
	return 0
}

func frameLen(m wire.Message) int64 {
	n := len(m.Marshal())
	hdr := 1
	for v := n >> 7; v > 0; v >>= 7 {
		hdr++
	}
	return int64(n + hdr)
}

func (p *probe) recordRPC(req, resp wire.Message, err error, d time.Duration, waited bool) {
	bytes := frameLen(req)
	if err == nil {
		bytes += frameLen(resp)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rpcs++
	if waited {
		p.connWaits++
	}
	p.rpcUs.addMicros(d)
	p.wireBytes += bytes
	if p.rpcs%wireSampleEvery == 0 && len(p.wireSample) < wireSampleCap {
		p.wireSample = append(p.wireSample, req)
		if err == nil {
			p.wireSample = append(p.wireSample, resp)
		}
	}
}

func (p *probe) recordDial(d time.Duration) {
	p.mu.Lock()
	p.dials++
	p.dialMs.addDur(d)
	p.mu.Unlock()
}

func (p *probe) recordHandler(t wire.Type, d time.Duration) {
	p.mu.Lock()
	if t == wire.TWantHave || t == wire.TWantBlock {
		p.handlerSwap.addMicros(d)
	} else {
		p.handlerDHT.addMicros(d)
	}
	p.mu.Unlock()
}

// probedEndpoint wraps the transport.Endpoint a node is built on: it
// times every dial, every request and every inbound handler call.
type probedEndpoint struct {
	transport.Endpoint
	p    *probe
	node int
}

func probeEndpoint(ep transport.Endpoint, p *probe, node int) transport.Endpoint {
	return &probedEndpoint{Endpoint: ep, p: p, node: node}
}

// SetHandler installs h wrapped in a timer; a nil handler stays nil, so
// the endpoint answers "no handler installed" exactly as unwrapped.
func (e *probedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.Endpoint.SetHandler(nil)
		return
	}
	self := e.Endpoint.LocalPeer()
	e.Endpoint.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
		if !e.p.active() {
			return h(ctx, from, req)
		}
		hctx, sp := e.p.t.startScope(ctx, "transport.handler", e.node, e.p.requestSpan(from, self))
		sp.setDetail(req.Type.String())
		start := time.Now()
		resp := h(hctx, from, req)
		d := time.Since(start)
		sp.end()
		e.p.recordHandler(req.Type, d)
		return resp
	})
}

func (e *probedEndpoint) Dial(ctx context.Context, target peer.ID, addrs []multiaddr.Multiaddr) (transport.Conn, error) {
	var sp *liveSpan
	active := e.p.active()
	if active {
		ctx, sp = e.p.t.start(ctx, "transport.dial", e.node)
	}
	start := time.Now()
	c, err := e.Endpoint.Dial(ctx, target, addrs)
	d := time.Since(start)
	sp.end()
	if active {
		e.p.recordDial(d)
	}
	if err != nil {
		return nil, err
	}
	return &probedConn{Conn: c, p: e.p, node: e.node, local: e.Endpoint.LocalPeer()}, nil
}

// probedConn times each request and counts requests issued while
// another was in flight on the same connection.
type probedConn struct {
	transport.Conn
	p        *probe
	node     int
	local    peer.ID
	inflight atomic.Int32
}

func (c *probedConn) Request(ctx context.Context, req wire.Message) (wire.Message, error) {
	if !c.p.active() {
		return c.Conn.Request(ctx, req)
	}
	waited := c.inflight.Add(1) > 1
	defer c.inflight.Add(-1)
	rctx, sp := c.p.t.start(ctx, "transport.request", c.node)
	sp.setDetail(req.Type.String())
	key := [2]peer.ID{c.local, c.Conn.RemotePeer()}
	c.p.pushInflight(key, sp.id())
	start := time.Now()
	resp, err := c.Conn.Request(rctx, req)
	d := time.Since(start)
	c.p.popInflight(key, sp.id())
	sp.end()
	c.p.recordRPC(req, resp, err, d, waited)
	return resp, err
}

// probedStore wraps the block.Store a node is built on and times every
// Put, Get, Has and Delete.
type probedStore struct {
	inner block.Store
	p     *probe
	node  int
	lru   bool
}

func (s *probedStore) Put(b block.Block) error {
	if !s.p.active() {
		return s.inner.Put(b)
	}
	_, sp := s.p.t.start(nil, "block.put", s.node)
	start := time.Now()
	err := s.inner.Put(b)
	d := time.Since(start)
	sp.end()
	s.p.mu.Lock()
	s.p.blockPuts++
	s.p.putUs.addMicros(d)
	s.p.mu.Unlock()
	return err
}

func (s *probedStore) Get(c cid.Cid) (block.Block, error) {
	if !s.p.active() {
		return s.inner.Get(c)
	}
	_, sp := s.p.t.start(nil, "block.get", s.node)
	start := time.Now()
	b, err := s.inner.Get(c)
	d := time.Since(start)
	sp.end()
	s.p.mu.Lock()
	s.p.blockGets++
	s.p.getUs.addMicros(d)
	if s.lru {
		s.p.lruGets++
		if err == nil {
			s.p.lruHits++
		}
	}
	s.p.mu.Unlock()
	return b, err
}

func (s *probedStore) Has(c cid.Cid) bool {
	_, sp := s.p.t.start(nil, "block.has", s.node)
	ok := s.inner.Has(c)
	sp.end()
	return ok
}

func (s *probedStore) Delete(c cid.Cid) {
	_, sp := s.p.t.start(nil, "block.delete", s.node)
	s.inner.Delete(c)
	sp.end()
}

func (s *probedStore) Len() int { return s.inner.Len() }

// metricsSetter is the optional telemetry hook core.New looks for.
type metricsSetter interface {
	SetMetrics(*telemetry.Registry)
}

// probeStore wraps inner so that the wrapper offers exactly the
// optional interfaces inner does — block.Pinner, block.Clearer,
// SetMetrics and io.Closer — because core.New type-asserts each of
// them and would otherwise drop pinning, metrics or Close. It refuses a
// store whose combination it has no wrapper for.
func probeStore(inner block.Store, p *probe, node int) (block.Store, error) {
	_, lru := inner.(*block.LRUStore)
	s := &probedStore{inner: inner, p: p, node: node, lru: lru}
	pin, isPin := inner.(block.Pinner)
	clr, isClr := inner.(block.Clearer)
	met, isMet := inner.(metricsSetter)
	cls, isCls := inner.(io.Closer)
	switch {
	case !isPin && !isClr && !isMet && !isCls:
		return s, nil
	case isPin && isClr && !isMet && !isCls:
		return struct {
			*probedStore
			block.Pinner
			block.Clearer
		}{s, pin, clr}, nil
	case isPin && !isClr && isMet && isCls:
		return struct {
			*probedStore
			block.Pinner
			metricsSetter
			io.Closer
		}{s, pin, met, cls}, nil
	}
	return nil, fmt.Errorf("perfbench: no store wrapper forwards the optional interfaces of %T", inner)
}

// probedHandler wraps the http.Handler the benchmark serves; each
// request is a new operation.
type probedHandler struct {
	h http.Handler
	p *probe
}

func (h probedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.p.active() {
		h.h.ServeHTTP(w, r)
		return
	}
	ctx, sp := h.p.t.startScope(withOp(r.Context(), h.p.ops.Add(1)), "gateway.serve", -1, 0)
	start := time.Now()
	h.h.ServeHTTP(w, r.WithContext(ctx))
	d := time.Since(start)
	sp.end()
	h.p.mu.Lock()
	h.p.serveUs.addMicros(d)
	h.p.mu.Unlock()
}

// addTo reports the seam counts, per operation where ops > 0.
func (p *probe) addTo(r *report, ops int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := float64(ops)
	r.set("transport.rpcs_per_op", ratio(float64(p.rpcs), n), "count", ops)
	r.set("transport.rpc_us_p50", p.rpcUs.pct(50), "us", p.rpcUs.len())
	r.set("transport.rpc_us_p99", p.rpcUs.pct(99), "us", p.rpcUs.len())
	r.set("transport.dials_per_op", ratio(float64(p.dials), n), "count", ops)
	r.set("transport.dial_ms_p50", p.dialMs.pct(50), "ms", p.dialMs.len())
	r.set("transport.conn_wait_frac", ratio(float64(p.connWaits), float64(p.rpcs)), "frac", int(p.rpcs))
	r.set("transport.handler_us.dht", p.handlerDHT.pct(50), "us", p.handlerDHT.len())
	r.set("transport.handler_us.bitswap", p.handlerSwap.pct(50), "us", p.handlerSwap.len())
	r.set("wire.bytes_per_op", ratio(float64(p.wireBytes), n), "B", ops)
	r.set("wire.codec_ns_per_byte", codecNsPerByte(p.wireSample), "ns/B", len(p.wireSample))
	r.set("block.get_us_p50", p.getUs.pct(50), "us", p.getUs.len())
	r.set("block.get_us_p99", p.getUs.pct(99), "us", p.getUs.len())
	r.set("block.put_us_p50", p.putUs.pct(50), "us", p.putUs.len())
	r.set("block.gets_per_op", ratio(float64(p.blockGets), n), "count", ops)
	r.set("block.puts_per_op", ratio(float64(p.blockPuts), n), "count", ops)
	r.set("block.lru_hit_frac", ratio(float64(p.lruHits), float64(p.lruGets)), "frac", int(p.lruGets))
	r.set("gateway.serve_us_p50", p.serveUs.pct(50), "us", p.serveUs.len())
	r.set("gateway.serve_us_p99", p.serveUs.pct(99), "us", p.serveUs.len())
}
