package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is a set of observations with exact percentiles. A failed
// operation is recorded as +Inf so it counts as missing every latency
// limit instead of dropping out of the sample.
type sample struct{ v []float64 }

func (s *sample) add(x float64)             { s.v = append(s.v, x) }
func (s *sample) addDur(d time.Duration)    { s.add(float64(d) / float64(time.Millisecond)) }
func (s *sample) addSec(d time.Duration)    { s.add(d.Seconds()) }
func (s *sample) len() int                  { return len(s.v) }
func (s *sample) failed()                   { s.add(math.Inf(1)) }
func (s *sample) addMicros(d time.Duration) { s.add(float64(d) / float64(time.Microsecond)) }

// pct returns the p-th percentile (nearest rank on the sorted sample);
// 0 for an empty sample.
func (s *sample) pct(p float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report collects a run's metrics in insertion order.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1 // unmeasurable (e.g. every op failed); the run is marked failed elsewhere
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// writeTable prints every metric as "name value unit (n=…)".
func (r *report) writeTable(w io.Writer, title string) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

// only returns the metrics defs names; one the run did not set is
// reported as 0 (the workload does not exercise that layer).
func (r *report) only(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	return out
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res result) print(w io.Writer) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// procSnap is a point-in-time reading of process CPU, allocation and
// GC counters; the difference of two brackets a measured phase.
type procSnap struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var procMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func takeSnap() procSnap {
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	snap := procSnap{wall: time.Now(), cpu: cpu, allocBytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = samples[1].Value.Float64()
	}
	return snap
}

// phaseCost is what a phase spent per operation.
type phaseCost struct {
	cpuPerOp  float64 // seconds
	allocMBOp float64
	gcCPUFrac float64
}

func costBetween(a, b procSnap, ops int64) phaseCost {
	var c phaseCost
	if ops > 0 {
		c.cpuPerOp = (b.cpu - a.cpu).Seconds() / float64(ops)
		c.allocMBOp = float64(b.allocBytes-a.allocBytes) / (1 << 20) / float64(ops)
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	return c
}

func (c phaseCost) addTo(r *report, ops int) {
	r.set("runtime.cpu_s_per_op", c.cpuPerOp, "s", ops)
	r.set("runtime.alloc_mb_per_op", c.allocMBOp, "MB", ops)
	r.set("runtime.gc_cpu_frac", c.gcCPUFrac, "frac", ops)
}

// setupCost records each set-up's wall time and the process CPU time
// it used. setup_s is the CPU time: a shared host's steal time stretches
// the wall time of identical set-ups by half, but not the CPU time, and
// work moved into set-up shows in either.
type setupCost struct{ wall, cpu sample }

func (c *setupCost) measure(fn func() error) error {
	a := takeSnap()
	err := fn()
	b := takeSnap()
	c.wall.addSec(b.wall.Sub(a.wall))
	c.cpu.addSec(b.cpu - a.cpu)
	return err
}

func (c *setupCost) addTo(r *report) {
	r.set("setup_s", c.cpu.pct(50), "s", c.cpu.len())
	r.set("setup_wall_s", c.wall.pct(50), "s", c.wall.len())
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
