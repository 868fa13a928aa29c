package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gwfleet"
	"repro/internal/gwload"
)

// gwParams sizes the gateway-zipf workload.
type gwParams struct {
	origins, fleet int
	objects        int   // catalog size
	maxSize        int   // catalog object size cap
	localCache     int64 // per-instance nginx cache
	sharedCache    int64 // fleet-shared object cache
	nodeStore      int64 // per-instance node blockstore (an LRUStore)
	setups         int
	nominal        float64       // GET/s of the nominal phase, about half capacity
	warmup         time.Duration // untimed GETs at the nominal rate before measuring
	ladder         []float64     // fixed SLO ladder, GET/s
	step           time.Duration // length of one ladder step
	sloLimit       time.Duration // p99 limit a ladder step must meet
	// lateLimit bounds the generator's lateness p99. The generator
	// shares the two CPUs with the fleet, and Go preempts a busy
	// goroutine only every 10 ms, so lateness of that order is the
	// scheduler; beyond half the SLO limit the schedule was not kept.
	lateLimit time.Duration
}

func gwParamsFor(o options) gwParams {
	p := gwParams{
		origins: 4, fleet: 2, objects: 400, maxSize: 512 << 10,
		localCache: 16 << 20, sharedCache: 32 << 20, nodeStore: 16 << 20,
		setups: 5, nominal: 250, warmup: 2 * time.Second,
		ladder:   []float64{600, 700, 800, 900, 1000, 1100, 1200, 1350, 1500},
		step:     1500 * time.Millisecond,
		sloLimit: 50 * time.Millisecond, lateLimit: 25 * time.Millisecond,
	}
	if o.tiny {
		p.objects, p.maxSize = 40, 256<<10
		p.localCache, p.sharedCache, p.nodeStore = 1<<20, 2<<20, 1<<20
		p.setups, p.nominal, p.warmup = 2, 100, 200*time.Millisecond
		p.ladder, p.step = []float64{100, 200}, 200*time.Millisecond
	}
	return p
}

// gwCluster is the gateway-zipf system under test: origin nodes on
// PackStores holding the catalog, a gwfleet over LRU-backed nodes, and
// its HTTP face on a loopback listener.
type gwCluster struct {
	tcp     *tcpCluster
	origins []*core.Node
	fleet   *gwfleet.Fleet
	roots   []cid.Cid
	srv     *http.Server
	served  chan error
	url     string
}

// contentPool backs every catalog object: object i is the pool's bytes
// from offset i*contentStride on. The stride is odd, so no two objects
// share a 256 KiB chunk, and the benchmark checks a response against
// the pool without keeping a copy of the catalog.
type contentPool []byte

const contentStride = 4099

func newContentPool(seed int64, objects, maxSize int) contentPool {
	pool := make([]byte, objects*contentStride+maxSize)
	rand.New(rand.NewSource(seed)).Read(pool)
	return pool
}

func (p contentPool) object(i, size int) []byte {
	off := i * contentStride
	return p[off : off+size]
}

func startGateway(o options, par gwParams, cat *gwload.Catalog, content contentPool, dir string, p *probe) (*gwCluster, error) {
	c := &gwCluster{tcp: &tcpCluster{dir: dir}}
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < par.origins+par.fleet; i++ {
		var store block.Store
		if i < par.origins {
			var err error
			if store, err = packStore(dir, fmt.Sprintf("origin-%d", i)); err != nil {
				c.close()
				return nil, err
			}
		} else {
			store = block.NewLRUStore(par.nodeStore)
		}
		n, err := startNode(rng, store, p, i)
		if err != nil {
			if cl, ok := store.(interface{ Close() error }); ok {
				cl.Close()
			}
			c.close()
			return nil, err
		}
		c.tcp.nodes = append(c.tcp.nodes, n)
	}
	c.origins = c.tcp.nodes[:par.origins]
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := mesh(ctx, c.tcp.nodes); err != nil {
		c.close()
		return nil, err
	}
	for i, obj := range cat.Objects {
		root, err := c.origins[i%par.origins].Add(content.object(i, obj.Size))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("import object %d: %w", i, err)
		}
		c.roots = append(c.roots, root)
	}
	c.fleet = gwfleet.New(c.tcp.nodes[par.origins:], gwfleet.Config{
		LocalCacheBytes:  par.localCache,
		SharedCacheBytes: par.sharedCache,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	var h http.Handler = c.fleet
	if p != nil {
		h = probedHandler{h: c.fleet, p: p}
	}
	c.srv = &http.Server{Handler: h}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	c.url = "http://" + ln.Addr().String() + "/ipfs/"
	return c, nil
}

func (c *gwCluster) close() error {
	var errs []error
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, c.srv.Shutdown(ctx))
		cancel()
		if err := <-c.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		c.srv = nil
	}
	errs = append(errs, c.tcp.close())
	return errors.Join(errs...)
}

// getReq is one scheduled GET: its due instant from the phase start and
// the catalog object it asks for.
type getReq struct {
	due time.Duration
	obj int
}

// schedule lays out a fixed-rate phase of GETs, objects drawn by Zipf
// popularity from rng.
func schedule(cat *gwload.Catalog, rng *rand.Rand, rate float64, dur time.Duration) []getReq {
	n := int(rate * dur.Seconds())
	out := make([]getReq, n)
	for i := range out {
		out[i] = getReq{due: time.Duration(float64(i) / rate * float64(time.Second)), obj: cat.SampleObject(rng)}
	}
	return out
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	sent    int64
	failed  int64
	latMs   sample // from due instant to last body byte; +Inf when failed
	lateMs  sample // generator lateness at hand-off
	backlog int    // GETs due by the phase end but not completed then
	tiers   map[string]int
	fleet   gwfleet.Stats
	errs    []error // the first failures' causes
}

func (ph *phaseResult) p99() float64 { return ph.latMs.pct(99) }

// client drives GETs against the fleet over at most two connections.
type client struct {
	http    *http.Client
	tr      *http.Transport
	c       *gwCluster
	cat     *gwload.Catalog
	content contentPool
}

const clientConns = 2

// catalogSeed fixes the gateway-zipf catalog's shape.
const catalogSeed = 1

func newClient(c *gwCluster, cat *gwload.Catalog, content contentPool) *client {
	tr := &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr, c: c, cat: cat, content: content}
}

var knownTiers = map[string]bool{
	gateway.TierNginx.String(): true, gateway.TierNodeStore.String(): true,
	gateway.TierShared.String(): true, gateway.TierNetwork.String(): true,
}

// run sends reqs in an open loop: a generator hands each GET to the
// workers at its due instant, whether or not earlier ones finished, and
// each GET is timed from that instant.
func (cl *client) run(rate float64, reqs []getReq) *phaseResult {
	ph := &phaseResult{tiers: make(map[string]int)}
	before := cl.c.fleet.Stats()
	type sent struct {
		getReq
		at time.Time
	}
	queue := make(chan sent, len(reqs)) // sized to the number of sends: the generator never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	var end time.Time
	if n := len(reqs); n > 0 {
		end = start.Add(reqs[n-1].due + time.Duration(float64(time.Second)/rate))
	}
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for r := range queue {
				tier, err := cl.get(r.obj, &body)
				done := time.Now()
				mu.Lock()
				ph.sent++
				switch {
				case err != nil:
					ph.failed++
					ph.latMs.failed()
					if len(ph.errs) < 10 {
						ph.errs = append(ph.errs, err)
					}
				default:
					ph.latMs.addDur(done.Sub(r.at))
					ph.tiers[tier]++
				}
				if done.After(end) && r.at.Before(end) {
					ph.backlog++
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lateMs.addDur(time.Since(due))
		queue <- sent{getReq: r, at: due}
	}
	close(queue)
	wg.Wait()
	ph.fleet = cl.c.fleet.Stats().Sub(before)
	return ph
}

// get fetches one object and checks status, tier header and body.
func (cl *client) get(obj int, body *bytes.Buffer) (string, error) {
	resp, err := cl.http.Get(cl.c.url + cl.c.roots[obj].String())
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET object %d: status %d", obj, resp.StatusCode)
	}
	tier := resp.Header.Get("X-Ipfs-Gateway-Tier")
	if !knownTiers[tier] {
		return "", fmt.Errorf("GET object %d: tier header %q", obj, tier)
	}
	size := cl.cat.Objects[obj].Size
	if !bytes.Equal(body.Bytes(), cl.content.object(obj, size)) {
		return "", fmt.Errorf("GET object %d: %w (%d bytes, want %d)", obj, errWrongBytes, body.Len(), size)
	}
	return tier, nil
}

// absorb folds a phase's counts into the outcome: every failure counts
// as a failed GET, and wrong bytes also make the run incorrect.
func (ph *phaseResult) absorb(out *outcome, o options) {
	out.attempted += ph.sent
	out.failed += ph.failed
	for _, err := range ph.errs {
		if errors.Is(err, errWrongBytes) {
			out.wrong("%v", err)
		}
		out.logFailure(o, "%v", err)
	}
}

func runGatewayZipf(o options) (*outcome, error) {
	par := gwParamsFor(o)
	out := &outcome{correct: true, rep: newReport()}
	var p *probe
	if o.trace {
		p = newProbe(newTracer())
	}
	// The catalog — sizes, popularity ranks and bytes — is part of the
	// workload's definition, so it comes from a fixed seed: with Zipf
	// 1.05 the few hottest objects carry most requests, and their sizes
	// and ring placement alone would otherwise swing the serving cost
	// from seed to seed. The run's seed draws the request stream and the
	// node identities.
	cat := gwload.NewCatalog(gwload.CatalogConfig{NumObjects: par.objects, Seed: catalogSeed, MaxSize: par.maxSize})
	content := newContentPool(catalogSeed, par.objects, par.maxSize)
	var catBytes int64
	for _, obj := range cat.Objects {
		catBytes += int64(obj.Size)
	}
	setups := par.setups
	if o.trace {
		setups = 1
	}
	var starts setupCost
	var c *gwCluster
	for i := 0; i < setups; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
			c = nil
			runtime.GC()
		}
		err := starts.measure(func() (err error) {
			c, err = startGateway(o, par, cat, content, filepath.Join(o.dir, fmt.Sprintf("cluster-%d", i)), p)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	defer c.close()
	fmt.Fprintf(o.log, "gateway-zipf: %d objects (%.1f MB) on %d origins, fleet of %d, set up in %.3fs (median of %d)\n",
		par.objects, float64(catBytes)/1e6, par.origins, par.fleet, starts.wall.pct(50), starts.wall.len())
	cl := newClient(c, cat, content)
	defer cl.tr.CloseIdleConnections()
	rng := rand.New(rand.NewSource(o.seed + 100))

	warm := cl.run(par.nominal, schedule(cat, rng, par.nominal, par.warmup))
	warm.absorb(out, o)
	heap := liveHeapMB()
	r := out.rep
	if !o.trace {
		snap := takeSnap()
		nom := cl.run(par.nominal, schedule(cat, rng, par.nominal, o.seconds/2))
		cost := costBetween(snap, takeSnap(), nom.sent)
		nom.absorb(out, o)
		if late := nom.lateMs.pct(99); late > float64(par.lateLimit)/float64(time.Millisecond) {
			out.wrong("generator fell behind: lateness p99 %.2f ms over the %v limit", late, par.lateLimit)
		}
		slo := sloRate(cl, cat, rng, par, out, o)
		starts.addTo(r)
		r.set("ops_per_s", slo, "1/s", 1)
		r.set("op_p50_ms", nom.latMs.pct(50), "ms", nom.latMs.len())
		r.set("op_tail_ms", nom.p99(), "ms", nom.latMs.len())
		r.set("cpu_ms_per_op", cost.cpuPerOp*1000, "ms", int(nom.sent))
		r.set("heap_mb", heap, "MB", 1)
		r.set("get_p50_ms", nom.latMs.pct(50), "ms", nom.latMs.len())
		r.set("get_p99_ms", nom.p99(), "ms", nom.latMs.len())
		r.set("slo_rps", slo, "1/s", 1)
		r.set("gen_late_p99_ms", nom.lateMs.pct(99), "ms", nom.lateMs.len())
		addTierShares(r, nom)
		return out, nil
	}

	snap := takeSnap()
	pa := cl.run(par.nominal, schedule(cat, rng, par.nominal, o.seconds/2))
	pa.absorb(out, o)
	untraced := costBetween(snap, takeSnap(), pa.sent)
	tp, err := beginTraced(p)
	if err != nil {
		return nil, err
	}
	pb := cl.run(par.nominal, schedule(cat, rng, par.nominal, o.seconds))
	pb.absorb(out, o)
	ops := int(pb.sent)
	if ops == 0 {
		return nil, errNoOps
	}
	untraced.addTo(r, int(pa.sent))
	addTierShares(r, pb)
	fs := pb.fleet
	r.set("gwfleet.cache_hit_rate", fs.CacheHitRate(), "frac", int(fs.Served()))
	r.set("gwfleet.shed_frac", ratio(float64(fs.Shed), float64(fs.Requests)), "frac", int(fs.Requests))
	r.set("gwfleet.spill_frac", ratio(float64(fs.Spilled), float64(fs.Requests)), "frac", int(fs.Requests))
	r.set("gen.late_p99_ms", pb.lateMs.pct(99), "ms", pb.lateMs.len())
	r.set("block.disk_bytes_per_user_byte", ratio(float64(dirBytes(c.tcp.dir)), float64(catBytes)), "ratio", par.objects)
	p.addTo(r, ops)
	if err := tp.end(o, pb.sent, untraced, r); err != nil {
		return nil, err
	}
	addFetchShape(r, p.t.spans(), par.origins)
	return out, nil
}

// addTierShares reports which serving tier answered the phase's GETs,
// from the X-Ipfs-Gateway-Tier header.
func addTierShares(r *report, ph *phaseResult) {
	var n int
	for _, v := range ph.tiers {
		n += v
	}
	f := func(t gateway.Tier) float64 { return ratio(float64(ph.tiers[t.String()]), float64(n)) }
	r.set("gateway.nginx_frac", f(gateway.TierNginx), "frac", n)
	r.set("gateway.shared_frac", f(gateway.TierShared), "frac", n)
	r.set("gateway.store_frac", f(gateway.TierNodeStore), "frac", n)
	r.set("gateway.network_frac", f(gateway.TierNetwork), "frac", n)
}

// addFetchShape derives the Bitswap metrics of the fleet's origin
// fetches from the traced spans: per served request that sent a want,
// how many WANT_HAVE and WANT_BLOCK RPCs it sent, and whether it found
// the block without a routing lookup.
func addFetchShape(r *report, spans []spanRec, origins int) {
	type shape struct{ haves, blocks, lookups int }
	byOp := make(map[int64]*shape)
	for _, s := range spans {
		if s.Name != "transport.request" || s.Node < origins || s.Op == 0 {
			continue
		}
		sh := byOp[s.Op]
		if sh == nil {
			sh = &shape{}
			byOp[s.Op] = sh
		}
		switch s.Detail {
		case "WANT_HAVE":
			sh.haves++
		case "WANT_BLOCK":
			sh.blocks++
		case "FIND_NODE", "GET_PROVIDERS":
			sh.lookups++
		}
	}
	var fetches, haves, blocks, hits int
	for _, sh := range byOp {
		if sh.haves+sh.blocks == 0 {
			continue
		}
		fetches++
		haves += sh.haves
		blocks += sh.blocks
		if sh.lookups == 0 {
			hits++
		}
	}
	r.set("bitswap.want_haves_per_retrieve", ratio(float64(haves), float64(fetches)), "count", fetches)
	r.set("bitswap.want_blocks_per_retrieve", ratio(float64(blocks), float64(fetches)), "count", fetches)
	r.set("bitswap.opportunistic_hit_frac", ratio(float64(hits), float64(fetches)), "frac", fetches)
}

// sloRate climbs the fixed rate ladder and returns
// the sustainable GET rate: the last step whose p99 met the limit with
// no growing backlog and an on-time generator, interpolated toward the
// first step that failed by where the limit falls between their p99s.
// A step fails only when a second attempt at it fails too, so one burst
// of load from outside the benchmark does not end the climb.
func sloRate(cl *client, cat *gwload.Catalog, rng *rand.Rand, par gwParams, out *outcome, o options) float64 {
	limitMs := float64(par.sloLimit) / float64(time.Millisecond)
	lateMs := float64(par.lateLimit) / float64(time.Millisecond)
	step := func(rate float64) (float64, bool) {
		ph := cl.run(rate, schedule(cat, rng, rate, par.step))
		ph.absorb(out, o)
		p99 := ph.p99()
		ok := p99 <= limitMs && ph.backlog <= int(rate*par.sloLimit.Seconds()) && ph.lateMs.pct(99) <= lateMs
		fmt.Fprintf(o.log, "ladder: %6.0f GET/s p99 %8.2f ms backlog %4d late_p99 %6.2f ms tiers %v -> %v\n",
			rate, p99, ph.backlog, ph.lateMs.pct(99), ph.tiers, ok)
		return p99, ok
	}
	var passRate, passP99 float64
	for _, rate := range par.ladder {
		p99, ok := step(rate)
		if !ok {
			p99, ok = step(rate)
		}
		if !ok {
			if passRate == 0 {
				return rate * limitMs / max(p99, limitMs)
			}
			frac := 0.0
			if p99 > passP99 {
				frac = min(1, (limitMs-passP99)/(p99-passP99))
			}
			return passRate + frac*(rate-passRate)
		}
		passRate, passP99 = rate, p99
	}
	return passRate
}
