package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kbucket"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// simParams sizes the sim-dht workload.
type simParams struct {
	peers   int // DHT servers in the event-driven testnet
	setups  int // network builds timed for setup_s (the traced run builds once)
	prefix  int // untimed warm-up pairs, whose counts and simulated delays replay exactly
	objSize int // bytes per published object (§4.3: 0.5 MB)
}

func simParamsFor(o options) simParams {
	if o.tiny {
		return simParams{peers: 300, setups: 2, prefix: 4, objSize: 64 << 10}
	}
	return simParams{peers: 10000, setups: 5, prefix: 150, objSize: 512 << 10}
}

// simNeighborLinks is the number of keyspace neighbours on each side
// that the testnet seeds into every routing table. With the testnet's
// default of 24 a 10k-peer table holds about 90 entries, where a
// converged Kademlia table with k = 20 holds about 200, and about one
// retrieval in 1300 finds no provider record: the retriever's walk
// converges in the sibling subtree of the key, whose few peers that
// know the records' subtree are dead or slow (seed 8, pair 27). With
// 40 the miss is about one in 6000. With 70, about 180 entries, no
// pair failed in 25 000 across ten seeds.
const simNeighborLinks = 70

// simRun is the state of one sim-dht run.
type simRun struct {
	o        options
	tn       *testnet.Testnet
	tr       *tracer
	vantages []*core.Node
	live     []*core.Node
	rng      *rand.Rand
	payload  []byte
	out      *outcome
	nextOp   int64
}

// runSimDHT loops the §4.3 protocol on an event-driven testnet: a
// publisher vantage adds and publishes a fresh object, then a flushed
// vantage in the next AWS region retrieves it.
func runSimDHT(o options) (*outcome, error) {
	par := simParamsFor(o)
	out := &outcome{correct: true, rep: newReport()}
	var p *probe
	if o.trace {
		p = newProbe(newTracer())
	}
	setups := par.setups
	if o.trace {
		setups = 1
	}
	var builds setupCost
	var tn *testnet.Testnet
	for i := 0; i < setups; i++ {
		tn = nil
		runtime.GC() // drop the previous build before timing the next
		builds.measure(func() error {
			tn = testnet.Build(testnet.Config{
				N:           par.peers,
				Seed:        o.seed,
				EventDriven: true,
				Workers:     1,
				// The §4.3 harness makes retrievals resolve the provider's
				// addresses with a second walk, as the paper's measurement did.
				OmitProviderAddrs: true,
				NeighborLinks:     simNeighborLinks,
			})
			return nil
		})
	}
	buildHeap := liveHeapMB()
	fmt.Fprintf(o.log, "sim-dht: %d peers built in %.3fs (median of %d)\n", par.peers, builds.wall.pct(50), builds.wall.len())

	s := &simRun{o: o, tn: tn, rng: rand.New(rand.NewSource(o.seed + 100)),
		payload: make([]byte, par.objSize), out: out}
	if p != nil {
		s.tr = p.t
	}
	phases := []time.Duration{o.seconds}
	if o.trace {
		phases = []time.Duration{o.seconds / 2, o.seconds}
	}
	warm := &pairTally{}
	tallies := make([]*pairTally, len(phases))
	var digest string
	var heap float64
	var tp *tracedPhase
	var untraced phaseCost
	var runErr error
	// The event loop runs on one OS thread: the lockstep scheduler runs
	// one goroutine at a time, and on a shared virtual machine every
	// hand-off between two threads would wait for the other vCPU.
	procs := runtime.GOMAXPROCS(1)
	err := tn.Sched.Run(context.Background(), func(ctx context.Context) {
		if runErr = s.attachVantages(ctx, p); runErr != nil {
			return
		}
		// The untimed warm-up pairs are the deterministic prefix: their
		// counts and simulated delays depend on the seed alone.
		for warm.pairs < int64(par.prefix) {
			s.pair(ctx, warm)
		}
		digest = s.digest(warm)
		heap = liveHeapMB()
		for pi, dur := range phases {
			traced := o.trace && pi == len(phases)-1
			if traced {
				if tp, runErr = beginTraced(p); runErr != nil {
					return
				}
			}
			t := &pairTally{}
			tallies[pi] = t
			snap := takeSnap()
			ev0, b0 := tn.Sched.Dispatched(), tn.Net.Budget()
			start := time.Now()
			for time.Since(start) < dur {
				s.pair(ctx, t)
			}
			t.wall = time.Since(start)
			t.events = tn.Sched.Dispatched() - ev0
			t.budget = tn.Net.Budget().Sub(b0)
			if !traced {
				untraced = costBetween(snap, takeSnap(), t.pairs)
			}
		}
	})
	runtime.GOMAXPROCS(procs)
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	if stalls := tn.Sched.Stalls(); stalls != 0 {
		out.wrong("scheduler stalled %d times: a wait escaped the event queue, so the run is not deterministic", stalls)
	}
	fmt.Fprintf(o.log, "determinism: %s\n", digest)
	for _, t := range append(tallies, warm) {
		out.attempted += t.pairs
		out.failed += t.failed
	}
	r := out.rep
	if !o.trace {
		t := tallies[0]
		builds.addTo(r)
		r.set("ops_per_s", float64(t.pairs-t.failed)/t.wall.Seconds(), "1/s", int(t.pairs))
		r.set("op_p50_ms", t.opMs.pct(50), "ms", t.opMs.len())
		r.set("op_tail_ms", t.opMs.pct(95), "ms", t.opMs.len())
		r.set("cpu_ms_per_op", untraced.cpuPerOp*1000, "ms", int(t.pairs))
		r.set("heap_mb", heap, "MB", 1)
		r.set("publish_p50_ms", t.pubMs.pct(50), "ms", t.pubMs.len())
		r.set("retrieve_p50_ms", t.retMs.pct(50), "ms", t.retMs.len())
		r.set("sim_publish_p50_s", warm.simPub.pct(50), "s", warm.simPub.len())
		r.set("sim_retrieve_p50_s", warm.simRet.pct(50), "s", warm.simRet.len())
		r.set("sim_retrieve_p95_s", warm.simRet.pct(95), "s", warm.simRet.len())
		runtime.KeepAlive(tn)
		return out, nil
	}
	t := tallies[len(tallies)-1]
	ops := int(t.pairs)
	if ops == 0 {
		return nil, errNoOps
	}
	untraced.addTo(r, int(tallies[0].pairs))
	t.addLayers(r, s.vantages[0].DHT().Table().K())
	r.set("testnet.build_s", builds.wall.pct(50), "s", builds.wall.len())
	r.set("testnet.heap_mb", buildHeap, "MB", 1)
	r.set("simtime.events_per_op", float64(t.events)/float64(ops), "count", ops)
	r.set("simtime.events_per_s", float64(t.events)/t.wall.Seconds(), "1/s", ops)
	r.set("simtime.stalls", float64(tn.Sched.Stalls()), "count", 1)
	b := t.budget
	r.set("simnet.rpcs_per_op", float64(b.Requests)/float64(ops), "count", ops)
	r.set("simnet.lookup_rpcs_per_op", float64(b.Category(transport.CatLookup))/float64(ops), "count", ops)
	r.set("simnet.publish_rpcs_per_op", float64(b.Category(transport.CatPublish))/float64(ops), "count", ops)
	r.set("simnet.want_rpcs_per_op", float64(b.Category(transport.CatWant))/float64(ops), "count", ops)
	r.set("simnet.dial_fail_frac", ratio(float64(b.DialFailures), float64(b.Dials)), "frac", int(b.Dials))
	var tables []*kbucket.Table
	for i := 0; i < len(tn.Nodes); i += max(1, len(tn.Nodes)/200) {
		tables = append(tables, tn.Nodes[i].DHT().Table())
	}
	r.set("kbucket.nearest_us", nearestMicros(tables, o.seed), "us", len(tables))
	p.addTo(r, ops)
	if err := tp.end(o, t.pairs, untraced, r); err != nil {
		return nil, err
	}
	runtime.KeepAlive(tn)
	return out, nil
}

// attachVantages adds the six AWS vantage nodes; each publishes its
// peer record once, as a joining node does.
func (s *simRun) attachVantages(ctx context.Context, p *probe) error {
	for i, region := range geo.AWSRegions {
		var store block.Store = block.NewMemStore()
		if p != nil {
			var err error
			if store, err = probeStore(store, p, i); err != nil {
				return err
			}
		}
		v := s.tn.AddVantageStore(region, s.o.seed+int64(1000+i), store)
		if err := v.PublishPeerRecord(ctx); err != nil {
			return fmt.Errorf("vantage %s: publish peer record: %w", region, err)
		}
		s.vantages = append(s.vantages, v)
	}
	s.live = s.tn.LiveNodes()
	return nil
}

// pair runs one publish+retrieve pair and records it in t.
func (s *simRun) pair(ctx context.Context, t *pairTally) {
	s.nextOp++
	op := s.nextOp
	pi := int(op % int64(len(s.vantages)))
	gi := (pi + 1) % len(s.vantages)
	pub, get := s.vantages[pi], s.vantages[gi]
	s.rng.Read(s.payload)
	// Fresh state per retrieval, then a few bystander connections so
	// the opportunistic Bitswap phase runs (and misses) as in §4.3.
	flush := func(ctx context.Context) {
		ctx, sp := s.tr.startScope(ctx, "testnet.flush", gi, 0)
		testnet.FlushVantage(get)
		for i := 0; i < 3; i++ {
			b := s.live[s.rng.Intn(len(s.live))]
			// A bystander that cannot be dialled is skipped, as in
			// experiments.RunPerformance.
			_, _, _ = get.Swarm().Connect(ctx, b.ID(), b.Addrs())
		}
		sp.end()
	}
	t.run(withOp(ctx, op), s.tr, pub, pi, get, gi, s.payload, flush, s.out, s.o)
	get.ClearStore()
	pub.ClearStore()
}

// digest renders the counts and simulated delays of the first prefix
// pairs; two processes at one seed must print the same line.
func (s *simRun) digest(t *pairTally) string {
	b := s.tn.Net.Budget()
	return fmt.Sprintf("pairs=%d events=%d rpcs=%d lookup=%d publish=%d want=%d dials=%d dial_failures=%d "+
		"sim_publish_p50_s=%.9f sim_retrieve_p50_s=%.9f sim_retrieve_p95_s=%.9f",
		t.pairs, s.tn.Sched.Dispatched(), b.Requests, b.Category(transport.CatLookup),
		b.Category(transport.CatPublish), b.Category(transport.CatWant), b.Dials, b.DialFailures,
		t.simPub.pct(50), t.simRet.pct(50), t.simRet.pct(95))
}
