package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// internalModules are the repro/internal packages CPU and allocation
// samples are charged to by name; any other repro/internal package is
// charged to "other".
var internalModules = []string{
	"testnet", "simtime", "simnet", "dht", "routing", "kbucket", "bitswap",
	"swarm", "transport", "wire", "varint", "multiaddr", "block", "merkledag",
	"chunker", "cid", "multihash", "core", "gateway", "gwfleet", "telemetry", "peer",
}

// attrModules are all the buckets: a sample goes to the innermost frame
// that is either in repro/internal/<m> or in the benchmark itself
// ("bench", which also takes the tracer's and the wrappers' own cost).
// A sample with neither is "runtime" when its leaf is in the Go runtime
// (GC, scheduler) and "std" otherwise.
var attrModules = append(append([]string(nil), internalModules...), "other", "bench", "std", "runtime")

const internalPrefix = "repro/internal/"

// attribute picks the bucket for a stack of function names, innermost
// first.
func attribute(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			for _, m := range internalModules {
				if m == rest {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	if len(funcs) > 0 && strings.HasPrefix(funcs[0], "runtime.") {
		return "runtime"
	}
	return "std"
}

// cpuProfiler records a CPU profile of one phase in memory.
type cpuProfiler struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfiler, error) {
	p := &cpuProfiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, optionally saves it to path, and returns the
// CPU time charged to each bucket, in nanoseconds.
func (p *cpuProfiler) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if path != "" {
		if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return attributeProfile(p.buf.Bytes())
}

// attributeProfile decodes a gzipped profile.proto and sums the last
// sample value (CPU nanoseconds) per bucket.
func attributeProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64)
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		var funcs []string
		for _, locID := range s.locs {
			for _, fnID := range prof.locFuncs[locID] {
				funcs = append(funcs, prof.strings[prof.funcName[fnID]])
			}
		}
		out[attribute(funcs)] += float64(s.values[len(s.values)-1])
	}
	return out, nil
}

// allocSnap is the sampled allocation profile at one instant, bytes per
// call stack.
type allocSnap map[[32]uintptr]int64

func takeAllocSnap() allocSnap {
	runtime.GC()
	runtime.GC() // the profile publishes as of the previous completed cycle
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnap, len(recs))
	for _, r := range recs {
		snap[r.Stack0] += r.AllocBytes
	}
	return snap
}

// allocBetween charges the bytes allocated between two snapshots to
// buckets.
func allocBetween(before, after allocSnap) map[string]float64 {
	out := make(map[string]float64)
	for stack, b := range after {
		d := b - before[stack]
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range stack {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var funcs []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[attribute(funcs)] += float64(d)
	}
	return out
}

// addShares reports each bucket's share of the total as prefix.<bucket>.
func addShares(r *report, prefix string, by map[string]float64) {
	var total float64
	for _, v := range by {
		total += v
	}
	for _, m := range attrModules {
		r.set(prefix+"."+m, ratio(by[m], total), "frac", 0)
	}
}

// --- minimal profile.proto decoding ---

type profSample struct {
	locs   []uint64
	values []int64
}

type decodedProfile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errProto = errors.New("malformed protobuf")

type pbReader struct {
	b []byte
	i int
}

func (r *pbReader) done() bool { return r.i >= len(r.b) }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.i >= len(r.b) {
			return 0, errProto
		}
		c := r.b[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

func (r *pbReader) key() (field int, wt int, err error) {
	k, err := r.varint()
	return int(k >> 3), int(k & 7), err
}

func (r *pbReader) lenDelim() ([]byte, error) {
	n, err := r.varint()
	if err != nil || uint64(len(r.b)-r.i) < n {
		return nil, errProto
	}
	out := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return out, nil
}

func (r *pbReader) skip(wt int) error {
	switch wt {
	case 0:
		_, err := r.varint()
		return err
	case 1:
		r.i += 8
	case 2:
		_, err := r.lenDelim()
		return err
	case 5:
		r.i += 4
	default:
		return errProto
	}
	if r.i > len(r.b) {
		return errProto
	}
	return nil
}

// uints reads one scalar or a packed run of varints.
func (r *pbReader) uints(wt int, dst []uint64) ([]uint64, error) {
	if wt == 0 {
		v, err := r.varint()
		return append(dst, v), err
	}
	if wt != 2 {
		return dst, errProto
	}
	b, err := r.lenDelim()
	if err != nil {
		return dst, err
	}
	sub := pbReader{b: b}
	for !sub.done() {
		v, err := sub.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*decodedProfile, error) {
	p := &decodedProfile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	r := pbReader{b: raw}
	for !r.done() {
		field, wt, err := r.key()
		if err != nil {
			return nil, err
		}
		if wt != 2 || (field != 2 && field != 4 && field != 5 && field != 6) {
			if err := r.skip(wt); err != nil {
				return nil, err
			}
			continue
		}
		b, err := r.lenDelim()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			err = p.decodeSample(b)
		case 4:
			err = p.decodeLocation(b)
		case 5:
			err = p.decodeFunction(b)
		case 6:
			p.strings = append(p.strings, string(b))
		}
		if err != nil {
			return nil, err
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}

func (p *decodedProfile) decodeSample(b []byte) error {
	r := pbReader{b: b}
	var s profSample
	for !r.done() {
		field, wt, err := r.key()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			s.locs, err = r.uints(wt, s.locs)
		case 2:
			var vs []uint64
			vs, err = r.uints(wt, nil)
			for _, v := range vs {
				s.values = append(s.values, int64(v))
			}
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	p.samples = append(p.samples, s)
	return nil
}

func (p *decodedProfile) decodeLocation(b []byte) error {
	r := pbReader{b: b}
	var id uint64
	var funcs []uint64
	for !r.done() {
		field, wt, err := r.key()
		if err != nil {
			return err
		}
		switch {
		case field == 1 && wt == 0:
			id, err = r.varint()
		case field == 4 && wt == 2:
			var line []byte
			if line, err = r.lenDelim(); err == nil {
				lr := pbReader{b: line}
				for !lr.done() {
					f, lwt, lerr := lr.key()
					if lerr != nil {
						return lerr
					}
					if f == 1 && lwt == 0 {
						fn, ferr := lr.varint()
						if ferr != nil {
							return ferr
						}
						funcs = append(funcs, fn)
					} else if lerr = lr.skip(lwt); lerr != nil {
						return lerr
					}
				}
			}
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	p.locFuncs[id] = funcs
	return nil
}

func (p *decodedProfile) decodeFunction(b []byte) error {
	r := pbReader{b: b}
	var id uint64
	var name int64
	for !r.done() {
		field, wt, err := r.key()
		if err != nil {
			return err
		}
		switch {
		case field == 1 && wt == 0:
			id, err = r.varint()
		case field == 2 && wt == 0:
			var v uint64
			v, err = r.varint()
			name = int64(v)
		default:
			err = r.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	p.funcName[id] = name
	return nil
}
