package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/transport"
)

// tcpCluster is a set of core nodes on real loopback TCP listeners in
// this process.
type tcpCluster struct {
	nodes []*core.Node
	dir   string
}

// startNode starts one DHT-server node on 127.0.0.1 over store. With a
// probe, the node's endpoint and store are wrapped and counted under
// index idx.
func startNode(rng *rand.Rand, store block.Store, p *probe, idx int) (*core.Node, error) {
	ident := peer.MustNewIdentity(rng)
	ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var tep transport.Endpoint = ep
	if p != nil {
		tep = probeEndpoint(ep, p, idx)
		if store, err = probeStore(store, p, idx); err != nil {
			ep.Close()
			return nil, err
		}
	}
	return core.New(ident, tep, core.Config{Mode: dht.ModeServer, Region: "US", Store: store}), nil
}

// packStore opens a PackStore in dir/name.
func packStore(dir, name string) (block.Store, error) {
	return block.NewPackStore(filepath.Join(dir, name), block.PackConfig{})
}

// mesh makes every node know every other in its routing table and
// dials every pair, as a long-running cluster would be connected.
func mesh(ctx context.Context, nodes []*core.Node) error {
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			a.DHT().Seed(b.Info())
			if _, _, err := a.Swarm().Connect(ctx, b.ID(), b.Addrs()); err != nil {
				return fmt.Errorf("connect %s -> %s: %w", a.ID().Short(), b.ID().Short(), err)
			}
		}
	}
	return nil
}

func (c *tcpCluster) close() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.Close())
	}
	c.nodes = nil
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

func (c *tcpCluster) tables() []*kbucket.Table {
	var out []*kbucket.Table
	for _, n := range c.nodes {
		out = append(out, n.DHT().Table())
	}
	return out
}

// ingestParams sizes the tcp-ingest workload.
type ingestParams struct {
	nodes            int
	setups           int
	warmup           int64 // untimed pairs before measuring
	minSize, maxSize int   // object sizes are log-uniform between these
}

func ingestParamsFor(o options) ingestParams {
	if o.tiny {
		return ingestParams{nodes: 6, setups: 2, warmup: 10, minSize: 1 << 10, maxSize: 300 << 10}
	}
	return ingestParams{nodes: 24, setups: 5, warmup: 200, minSize: 4 << 10, maxSize: 1 << 20}
}

// startIngestCluster starts the tcp-ingest nodes, each on its own
// PackStore, and meshes them.
func startIngestCluster(o options, par ingestParams, dir string, p *probe) (*tcpCluster, error) {
	c := &tcpCluster{dir: dir}
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < par.nodes; i++ {
		store, err := packStore(dir, fmt.Sprintf("node-%02d", i))
		if err != nil {
			c.close()
			return nil, err
		}
		n, err := startNode(rng, store, p, i)
		if err != nil {
			store.(*block.PackStore).Close()
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := mesh(ctx, c.nodes); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// runTCPIngest drives one closed-loop client against a loopback TCP
// cluster: a node imports and publishes a fresh object (DHT walk plus
// ADD_PROVIDER over TCP), another node retrieves it, and the bytes are
// checked.
func runTCPIngest(o options) (*outcome, error) {
	par := ingestParamsFor(o)
	out := &outcome{correct: true, rep: newReport()}
	var p *probe
	if o.trace {
		p = newProbe(newTracer())
	}
	setups := par.setups
	if o.trace {
		setups = 1
	}
	var starts setupCost
	var c *tcpCluster
	for i := 0; i < setups; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
			c = nil
			runtime.GC()
		}
		err := starts.measure(func() (err error) {
			c, err = startIngestCluster(o, par, filepath.Join(o.dir, fmt.Sprintf("cluster-%d", i)), p)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	defer c.close()
	fmt.Fprintf(o.log, "tcp-ingest: %d nodes started in %.3fs (median of %d)\n", par.nodes, starts.wall.pct(50), starts.wall.len())

	var tr *tracer
	if p != nil {
		tr = p.t
	}
	rng := rand.New(rand.NewSource(o.seed + 100))
	buf := make([]byte, par.maxSize)
	var op int64
	// runPhase runs pairs for dur, or, when count > 0, for count pairs.
	runPhase := func(dur time.Duration, count int64) *pairTally {
		t := &pairTally{}
		start := time.Now()
		for (count > 0 && t.pairs < count) || (count == 0 && time.Since(start) < dur) {
			op++
			pi := rng.Intn(len(c.nodes))
			gi := (pi + 1 + rng.Intn(len(c.nodes)-1)) % len(c.nodes)
			size := logUniform(rng, par.minSize, par.maxSize)
			payload := buf[:size]
			rng.Read(payload)
			ctx, cancel := context.WithTimeout(withOp(context.Background(), op), 30*time.Second)
			t.run(ctx, tr, c.nodes[pi], pi, c.nodes[gi], gi, payload, nil, out, o)
			cancel()
		}
		t.wall = time.Since(start)
		out.attempted += t.pairs
		out.failed += t.failed
		return t
	}

	runPhase(0, par.warmup)
	heap := liveHeapMB()
	r := out.rep
	if !o.trace {
		snap := takeSnap()
		t := runPhase(o.seconds, 0)
		cost := costBetween(snap, takeSnap(), t.pairs)
		starts.addTo(r)
		r.set("ops_per_s", float64(t.pairs-t.failed)/t.wall.Seconds(), "1/s", int(t.pairs))
		r.set("op_p50_ms", t.opMs.pct(50), "ms", t.opMs.len())
		r.set("op_tail_ms", t.opMs.pct(99), "ms", t.opMs.len())
		r.set("cpu_ms_per_op", cost.cpuPerOp*1000, "ms", int(t.pairs))
		r.set("heap_mb", heap, "MB", 1)
		r.set("publish_p50_ms", t.pubMs.pct(50), "ms", t.pubMs.len())
		r.set("publish_p99_ms", t.pubMs.pct(99), "ms", t.pubMs.len())
		r.set("retrieve_p50_ms", t.retMs.pct(50), "ms", t.retMs.len())
		r.set("retrieve_p99_ms", t.retMs.pct(99), "ms", t.retMs.len())
		return out, nil
	}

	snap := takeSnap()
	ta := runPhase(o.seconds/2, 0)
	untraced := costBetween(snap, takeSnap(), ta.pairs)
	diskBefore := dirBytes(c.dir)
	tp, err := beginTraced(p)
	if err != nil {
		return nil, err
	}
	t := runPhase(o.seconds, 0)
	ops := int(t.pairs)
	if ops == 0 {
		return nil, errNoOps
	}
	untraced.addTo(r, int(ta.pairs))
	t.addLayers(r, c.nodes[0].DHT().Table().K())
	r.set("block.disk_bytes_per_user_byte", ratio(float64(dirBytes(c.dir)-diskBefore), float64(t.addBytes)), "ratio", ops)
	r.set("kbucket.nearest_us", nearestMicros(c.tables(), o.seed), "us", len(c.nodes))
	p.addTo(r, ops)
	if err := tp.end(o, t.pairs, untraced, r); err != nil {
		return nil, err
	}
	return out, nil
}

// logUniform draws an integer whose logarithm is uniform in [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	return int(math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))))
}
