// Command perfbench is the repository's benchmark. It runs one named
// workload against the IPFS stack in repro/internal, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run) followed by one JSON
// result line.
//
//	perfbench --workload sim-dht --seed 1 --seconds 12 --trace 0
//
// See README.md for the workloads, the metrics and the traced run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run puts in its result line;
// BENCHMARK.json lists the same names. They are costs that a shared
// host's steal time does not move (see README.md); the wall-clock
// throughput and latencies are printed in the table above the result.
// Each workload defines its own operation: a publish+retrieve pair, or
// one HTTP GET.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = append([]metricDef{
	{"core.add_ms", "ms"}, {"core.publish_ms", "ms"}, {"core.retrieve_ms", "ms"},
	{"merkledag.add_mbps", "MB/s"},
	{"testnet.build_s", "s"}, {"testnet.heap_mb", "MB"},
	{"simtime.events_per_op", "count"}, {"simtime.events_per_s", "1/s"}, {"simtime.stalls", "count"},
	{"simnet.rpcs_per_op", "count"}, {"simnet.lookup_rpcs_per_op", "count"},
	{"simnet.publish_rpcs_per_op", "count"}, {"simnet.want_rpcs_per_op", "count"},
	{"simnet.dial_fail_frac", "frac"},
	{"sim_publish_p50_s", "s"}, {"sim_retrieve_p50_s", "s"}, {"sim_retrieve_p95_s", "s"},
	{"dht.store_ok_frac", "frac"}, {"dht.walk_p50_s", "s"}, {"dht.lookup_msgs_per_retrieve", "count"},
	{"kbucket.nearest_us", "us"},
	{"bitswap.want_haves_per_retrieve", "count"}, {"bitswap.want_blocks_per_retrieve", "count"},
	{"bitswap.opportunistic_hit_frac", "frac"},
	{"transport.rpcs_per_op", "count"}, {"transport.rpc_us_p50", "us"}, {"transport.rpc_us_p99", "us"},
	{"transport.dials_per_op", "count"}, {"transport.dial_ms_p50", "ms"},
	{"transport.conn_wait_frac", "frac"},
	{"transport.handler_us.dht", "us"}, {"transport.handler_us.bitswap", "us"},
	{"wire.bytes_per_op", "B"}, {"wire.codec_ns_per_byte", "ns/B"},
	{"block.get_us_p50", "us"}, {"block.get_us_p99", "us"}, {"block.put_us_p50", "us"},
	{"block.gets_per_op", "count"}, {"block.puts_per_op", "count"},
	{"block.lru_hit_frac", "frac"}, {"block.disk_bytes_per_user_byte", "ratio"},
	{"gateway.serve_us_p50", "us"}, {"gateway.serve_us_p99", "us"},
	{"gateway.nginx_frac", "frac"}, {"gateway.shared_frac", "frac"},
	{"gateway.store_frac", "frac"}, {"gateway.network_frac", "frac"},
	{"gwfleet.cache_hit_rate", "frac"}, {"gwfleet.shed_frac", "frac"}, {"gwfleet.spill_frac", "frac"},
	{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_cpu_frac", "frac"}, {"runtime.cpu_s_per_op", "s"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}, attributionDefs()...)

func attributionDefs() []metricDef {
	var defs []metricDef
	for _, prefix := range []string{"cpu", "alloc"} {
		for _, m := range attrModules {
			defs = append(defs, metricDef{prefix + "." + m, "frac"})
		}
	}
	return defs
}

// options are the settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tiny    bool   // smoke-test sizes
	dir     string // scratch directory for this run's stores
	outDir  string // where the traced run writes spans and profiles
	log     io.Writer
}

// outcome is what a workload returns.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	logged    int
	rep       *report
}

// logFailure reports a failed operation's cause on the log, up to ten
// per run; the operation itself is counted by the caller.
func (out *outcome) logFailure(o options, format string, args ...any) {
	out.logged++
	if out.logged <= 10 {
		fmt.Fprintf(o.log, "failed: "+format+"\n", args...)
	}
}

func (o *outcome) wrong(format string, args ...any) {
	o.correct = false
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sim-dht":      runSimDHT,
	"gateway-zipf": runGatewayZipf,
	"tcp-ingest":   runTCPIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for stores, spans and profiles")
	tiny := fs.Bool("tiny", false, "smoke-test sizes (seconds-long runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runDir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		tiny:    *tiny,
		dir:     filepath.Join(runDir, "data"),
		outDir:  filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d", *name, *seed)),
		log:     stderr,
	}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if opts.trace {
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	out, err := w(opts)
	if rmErr := os.RemoveAll(runDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	title := fmt.Sprintf("%s seed=%d end-to-end", *name, *seed)
	if opts.trace {
		defs = perLayer
		title = fmt.Sprintf("%s seed=%d per-layer (traced run; spans and profiles in %s)", *name, *seed, opts.outDir)
	}
	out.rep.writeTable(stdout, title)
	fmt.Fprintf(stdout, "attempted=%d failed=%d failed_frac=%.6f correct=%v\n",
		out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)), out.correct)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.rep.only(defs)}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tracedPhase brackets the traced phase of a traced run: spans on, a
// CPU profile and an allocation profile running.
type tracedPhase struct {
	p     *probe
	cpu   *cpuProfiler
	alloc allocSnap
	snap  procSnap
}

func beginTraced(p *probe) (*tracedPhase, error) {
	tp := &tracedPhase{p: p, alloc: takeAllocSnap()}
	cpu, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	tp.cpu = cpu
	tp.snap = takeSnap()
	p.t.on.Store(true)
	return tp, nil
}

// end stops tracing and profiling, writes the spans, the span table and
// the CPU profile to outDir, and reports the attribution shares and
// the tracing overhead against the untraced phase's cost.
func (tp *tracedPhase) end(o options, ops int64, untraced phaseCost, r *report) error {
	tp.p.t.on.Store(false)
	traced := costBetween(tp.snap, takeSnap(), ops)
	cpuBy, err := tp.cpu.stop(filepath.Join(o.outDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	addShares(r, "cpu", cpuBy)
	addShares(r, "alloc", allocBetween(tp.alloc, takeAllocSnap()))
	if untraced.cpuPerOp > 0 {
		r.set("trace.overhead_frac", traced.cpuPerOp/untraced.cpuPerOp-1, "frac", int(ops))
	}
	spans := tp.p.t.spans()
	if err := writeSpans(filepath.Join(o.outDir, "spans.jsonl"), spans); err != nil {
		return err
	}
	layers := selfTimes(spans)
	f, err := os.Create(filepath.Join(o.outDir, "layers.txt"))
	if err != nil {
		return err
	}
	writeLayerTable(f, layers, int(ops))
	if err := f.Close(); err != nil {
		return err
	}
	writeLayerTable(o.log, layers, int(ops))
	fmt.Fprintf(o.log, "traced phase: %d ops, %d spans, cpu/op traced %.3gs vs untraced %.3gs\n",
		ops, len(spans), traced.cpuPerOp, untraced.cpuPerOp)
	return nil
}

var errNoOps = errors.New("no operation completed")
