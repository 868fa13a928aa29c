package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// runTiny runs one workload at smoke-test size and returns the parsed
// last output line and the standard error.
func runTiny(t *testing.T, workload string, trace int) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--tiny",
		"--trace", strconv.Itoa(trace), "--workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d exited %d\nstderr:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	return res, stderr.String()
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metric) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload, untraced and traced, at tiny size: all
// outputs must check out and every metric must be reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, stderr := runTiny(t, w, trace)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, stderr)
			}
			if got, want := keys(res.Metrics), metricNames(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: metrics %v, want %v", w, trace, got, want)
			}
			if trace == 0 {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestTracedRunWritesSpans checks the traced run's artifacts.
func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "tcp-ingest", "--seed", "3", "--seconds", "1", "--tiny", "--trace", "1", "--workdir", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := filepath.Join(dir, "trace-tcp-ingest-seed3")
	for _, f := range []string{"spans.jsonl", "layers.txt", "cpu.pprof"} {
		if fi, err := os.Stat(filepath.Join(out, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(out, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	var linked int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s spanRec
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span %q: %v", line, err)
		}
		names[s.Name]++
		if s.Name == "transport.handler" && s.Parent != 0 {
			linked++
		}
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	for _, n := range []string{"core.add", "core.publish", "core.retrieve", "transport.request", "transport.handler", "block.put", "block.get"} {
		if names[n] == 0 {
			t.Errorf("no %s spans: %v", n, names)
		}
	}
	if linked == 0 {
		t.Error("no handler span is linked to the request that caused it")
	}
}

// TestSimDHTDeterministicAcrossProcesses runs sim-dht at one seed in two
// processes: the warm-up prefix's event and RPC counts and simulated
// delays must match exactly.
func TestSimDHTDeterministicAcrossProcesses(t *testing.T) {
	if os.Getenv("PERFBENCH_HELPER") == "1" {
		os.Exit(run([]string{"--workload", "sim-dht", "--seed", "11", "--seconds", "0.5", "--tiny",
			"--workdir", os.Getenv("PERFBENCH_DIR")}, io.Discard, os.Stderr))
	}
	digest := func() string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSimDHTDeterministicAcrossProcesses$")
		cmd.Env = append(os.Environ(), "PERFBENCH_HELPER=1", "PERFBENCH_DIR="+t.TempDir())
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("helper: %v\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "determinism: ") {
				return line
			}
		}
		t.Fatalf("no determinism line in:\n%s", out)
		return ""
	}
	a, b := digest(), digest()
	if a != b {
		t.Errorf("seeded sim-dht diverged across processes:\n%s\n%s", a, b)
	}
}

// TestProbeStoreForwardsOptionalInterfaces checks that a wrapped store
// offers exactly the optional interfaces of the store it wraps, and that
// they reach it.
func TestProbeStoreForwardsOptionalInterfaces(t *testing.T) {
	pack, err := block.NewPackStore(t.TempDir(), block.PackConfig{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(newTracer())
	for _, inner := range []block.Store{block.NewMemStore(), block.NewLRUStore(1 << 20), pack} {
		w, err := probeStore(inner, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			in, wrapd bool
		}{
			{"Pinner", is[block.Pinner](inner), is[block.Pinner](w)},
			{"Clearer", is[block.Clearer](inner), is[block.Clearer](w)},
			{"SetMetrics", is[metricsSetter](inner), is[metricsSetter](w)},
			{"Closer", is[io.Closer](inner), is[io.Closer](w)},
		} {
			if c.in != c.wrapd {
				t.Errorf("%T: inner %s=%v, wrapper %s=%v", inner, c.name, c.in, c.name, c.wrapd)
			}
		}
		b := block.New(multicodec.Raw, []byte("forwarded"))
		p.t.on.Store(true)
		if err := w.Put(b); err != nil {
			t.Fatal(err)
		}
		p.t.on.Store(false)
		if !inner.Has(b.Cid()) {
			t.Errorf("%T: Put did not reach the store", inner)
		}
		if pin, ok := w.(block.Pinner); ok {
			pin.Pin(b.Cid())
			if !inner.(block.Pinner).Pinned(b.Cid()) {
				t.Errorf("%T: Pin did not reach the store", inner)
			}
		}
		if m, ok := w.(metricsSetter); ok {
			m.SetMetrics(telemetry.NewRegistry())
		}
		if c, ok := w.(io.Closer); ok {
			if err := c.Close(); err != nil {
				t.Errorf("%T: Close: %v", inner, err)
			}
			if err := inner.Put(block.New(multicodec.Raw, []byte("after close"))); err == nil {
				t.Errorf("%T: store still accepts puts after the wrapper's Close", inner)
			}
		}
	}
	if p.blockPuts != 3 {
		t.Errorf("counted %d puts, want 3", p.blockPuts)
	}
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// fakeEndpoint records the handler it was given.
type fakeEndpoint struct {
	transport.Endpoint
	h   transport.Handler
	set int
}

func (f *fakeEndpoint) SetHandler(h transport.Handler) { f.h, f.set = h, f.set+1 }
func (f *fakeEndpoint) LocalPeer() peer.ID             { return "self" }

func TestProbedEndpointKeepsSetHandler(t *testing.T) {
	f := &fakeEndpoint{}
	p := newProbe(newTracer())
	ep := probeEndpoint(f, p, 0)
	ep.SetHandler(nil)
	if f.set != 1 || f.h != nil {
		t.Fatalf("nil handler not passed through: set=%d nil=%v", f.set, f.h == nil)
	}
	calls := 0
	ep.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
		calls++
		return wire.Message{Type: wire.TAck}
	})
	for _, on := range []bool{false, true} {
		p.t.on.Store(on)
		if resp := f.h(context.Background(), "peer", wire.Message{Type: wire.TWantHave}); resp.Type != wire.TAck {
			t.Fatalf("handler response %v", resp.Type)
		}
	}
	if calls != 2 || p.handlerSwap.len() != 1 {
		t.Errorf("calls=%d timed=%d, want 2 and 1", calls, p.handlerSwap.len())
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "core.retrieve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "block.put", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "block.put", Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "block.put", Start: 90, End: 120}, // runs past the parent
	}
	got := make(map[string]layerTime)
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	if self := got["core.retrieve"].Self; self != 50 {
		t.Errorf("core.retrieve self = %d, want 100-40-10 = 50", self)
	}
	if self := got["block.put"].Self; self != 80 {
		t.Errorf("block.put self = %d, want 80", self)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha256.block", "repro/internal/multihash.Sum", "repro/internal/block.New"}, "multihash"},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, "runtime"},
		{[]string{"runtime.mallocgc", "repro/internal/kbucket.KeyForPeer"}, "kbucket"},
		{[]string{"runtime.Stack", "main.goid", "main.(*probedStore).Put", "repro/internal/merkledag.(*Builder).Add"}, "bench"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "repro/internal/transport.(*tcpConn).Request"}, "transport"},
		{[]string{"repro/internal/geo.Distance"}, "other"},
		{[]string{"net/http.(*conn).serve"}, "std"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUProfileDecodes checks the profile.proto decoder on a real
// profile of this process.
func TestCPUProfileDecodes(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20)
	for i := 0; i < 300; i++ {
		cid.Sum(multicodec.Raw, data)
	}
	by, err := prof.stop("")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range by {
		total += v
	}
	if total <= 0 || by["multihash"] <= 0 {
		t.Errorf("no CPU charged to multihash: %v", by)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the code in
// step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, code has %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, code has %s %s", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
