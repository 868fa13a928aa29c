package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// errWrongBytes marks an operation whose bytes differ from the ones the
// benchmark generated.
var errWrongBytes = errors.New("wrong bytes")

// pairTally accumulates one phase of publish+retrieve pairs.
type pairTally struct {
	pairs, failed             int64
	opMs, addMs, pubMs, retMs sample // wall clock
	simPub, simRet, walk      sample // seconds on the node's clock: simulated on sim-dht

	storeOK, lookupMsgs   sample
	wantHaves, wantBlocks sample
	bitswapHits           int
	addBytes              int64
	addTime               time.Duration
	wall                  time.Duration
	events                int64         // sim-dht: scheduler events
	budget                simnet.Budget // sim-dht: RPCs spent
}

// run is one publish+retrieve pair: pub (node index pi) adds and
// publishes payload, prepare (when non-nil) runs, and get (node index
// gi) retrieves it and the bytes are checked. The pair is recorded in
// t; a failure is counted and its cause logged, wrong bytes make the
// run incorrect.
func (t *pairTally) run(ctx context.Context, tr *tracer, pub *core.Node, pi int, get *core.Node, gi int,
	payload []byte, prepare func(context.Context), out *outcome, o options) {
	t.pairs++
	start := time.Now()
	err := t.pair(ctx, tr, pub, pi, get, gi, payload, prepare)
	if err == nil {
		t.opMs.addDur(time.Since(start))
		return
	}
	t.failed++
	t.opMs.failed()
	if errors.Is(err, errWrongBytes) {
		out.wrong("pair %d: %v", t.pairs, err)
	}
	out.logFailure(o, "pair %d: %v", t.pairs, err)
}

func (t *pairTally) pair(ctx context.Context, tr *tracer, pub *core.Node, pi int, get *core.Node, gi int,
	payload []byte, prepare func(context.Context)) error {
	_, sp := tr.startScope(ctx, "core.add", pi, 0)
	t0 := time.Now()
	root, err := pub.Add(payload)
	addDur := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("add: %w", err)
	}
	t.addMs.addDur(addDur)
	t.addTime += addDur
	t.addBytes += int64(len(payload))

	pctx, sp := tr.startScope(ctx, "core.publish", pi, 0)
	t0 = time.Now()
	pr, err := pub.Publish(pctx, root)
	t.pubMs.addDur(time.Since(t0))
	sp.end()
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	t.simPub.addSec(pr.TotalDuration)
	t.walk.addSec(pr.WalkDuration)
	t.storeOK.add(float64(pr.StoreOK))

	if prepare != nil {
		prepare(ctx)
	}

	rctx, sp := tr.startScope(ctx, "core.retrieve", gi, 0)
	t0 = time.Now()
	data, rr, err := get.Retrieve(rctx, root)
	t.retMs.addDur(time.Since(t0))
	sp.end()
	if err != nil {
		return fmt.Errorf("retrieve: %w", err)
	}
	if !bytes.Equal(data, payload) {
		return fmt.Errorf("%w: retrieved %d bytes that differ from the %d published", errWrongBytes, len(data), len(payload))
	}
	t.simRet.addSec(rr.Total)
	t.lookupMsgs.add(float64(rr.LookupMsgs))
	t.wantHaves.add(float64(rr.WantHaves))
	t.wantBlocks.add(float64(rr.WantBlocks))
	if rr.BitswapHit {
		t.bitswapHits++
	}
	return nil
}

// addLayers reports the core, merkledag, DHT and Bitswap metrics of a
// phase of pairs; k is the DHT replication factor.
func (t *pairTally) addLayers(r *report, k int) {
	n := t.simRet.len()
	r.set("core.add_ms", t.addMs.pct(50), "ms", t.addMs.len())
	r.set("core.publish_ms", t.pubMs.pct(50), "ms", t.pubMs.len())
	r.set("core.retrieve_ms", t.retMs.pct(50), "ms", t.retMs.len())
	r.set("merkledag.add_mbps", ratio(float64(t.addBytes)/1e6, t.addTime.Seconds()), "MB/s", t.addMs.len())
	r.set("sim_publish_p50_s", t.simPub.pct(50), "s", t.simPub.len())
	r.set("sim_retrieve_p50_s", t.simRet.pct(50), "s", n)
	r.set("sim_retrieve_p95_s", t.simRet.pct(95), "s", n)
	r.set("dht.store_ok_frac", t.storeOK.mean()/float64(k), "frac", t.storeOK.len())
	r.set("dht.walk_p50_s", t.walk.pct(50), "s", t.walk.len())
	r.set("dht.lookup_msgs_per_retrieve", t.lookupMsgs.mean(), "count", n)
	r.set("bitswap.want_haves_per_retrieve", t.wantHaves.mean(), "count", n)
	r.set("bitswap.want_blocks_per_retrieve", t.wantBlocks.mean(), "count", n)
	r.set("bitswap.opportunistic_hit_frac", ratio(float64(t.bitswapHits), float64(n)), "frac", n)
}
