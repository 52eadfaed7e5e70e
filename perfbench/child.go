package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// pass is one pass over a workload's operations: the traces they
// requested and, per operation, its wall and CPU time.
type pass struct {
	Traces int       `json:"traces"`
	Wall   []float64 `json:"wall_s"`
	CPU    []float64 `json:"cpu_s"`
}

// report is what the measured child hands its parent (drive).
type report struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Passes    []pass            `json:"passes"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Host      hostRecord        `json:"host"`

	// rt totals the runtime/metrics deltas across the untraced
	// operations, the source of the go.* rows.
	rt runtimeSample
}

// child is the body of a probe or measured process: set up, signal
// readiness on file descriptor 3, and (role "run") measure.
func child(role, name string, seed int64, budget time.Duration, traced bool) error {
	// One process, closed loop, every core: one operation at a time,
	// engine workers at their default of one per core.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ops, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	ready := os.NewFile(3, "ready")
	if _, err := ready.Write([]byte{1}); err != nil {
		return fmt.Errorf("signalling set-up done: %w", err)
	}
	ready.Close()
	if role == "probe" {
		return nil
	}
	rep := &report{Host: currentHost(seed)}
	if traced {
		runTraced(ops, budget, rep)
	} else {
		runUntraced(ops, budget, rep, nil)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checker runs each operation and checks its output: against the
// committed artifact or the paper's verdicts, and against the same
// operation's first output in this process (every pass repeats the
// same inputs, so outputs must repeat byte for byte).
type checker struct {
	rep   *report
	first [][]byte
}

func (c *checker) run(ops []op, i int) ([]byte, bool) {
	out, err := ops[i].run()
	return c.check(ops, i, out, err)
}

// check records one attempt of operation i, whose run returned out and
// err.
func (c *checker) check(ops []op, i int, out []byte, err error) ([]byte, bool) {
	o := &ops[i]
	c.rep.Attempted++
	if err == nil {
		err = o.check(out)
	}
	if err == nil && c.first[i] != nil && !bytes.Equal(out, c.first[i]) {
		err = fmt.Errorf("output differs from this operation's first output in the run")
	}
	if err != nil {
		c.fail(o.name, err)
		return nil, false
	}
	if c.first[i] == nil {
		c.first[i] = out
	}
	return out, true
}

func (c *checker) fail(name string, err error) {
	c.rep.Failed++
	if len(c.rep.Errors) < 20 {
		c.rep.Errors = append(c.rep.Errors, fmt.Sprintf("%s: %v", name, err))
	}
}

// runUntraced makes whole passes over the workload until the budget is
// spent (at least one), timing each operation. Between operations it
// collects garbage, outside the timed spans, so each operation starts
// from the same heap and the peak resident set is the largest single
// operation's, not an accident of when the collector last ran.
func runUntraced(ops []op, budget time.Duration, rep *report, c *checker) {
	if c == nil {
		c = &checker{rep: rep, first: make([][]byte, len(ops))}
	}
	start := time.Now()
	for len(rep.Passes) == 0 || time.Since(start) < budget {
		p := pass{}
		for i := range ops {
			runtime.GC()
			rt0, cpu0, t0 := readRuntime(), processCPU(), time.Now()
			out, err := ops[i].run()
			p.Wall = append(p.Wall, time.Since(t0).Seconds())
			p.CPU = append(p.CPU, (processCPU() - cpu0).Seconds())
			rep.rt.add(readRuntime(), rt0)
			c.check(ops, i, out, err)
			p.Traces += ops[i].traces
		}
		rep.Passes = append(rep.Passes, p)
	}
}

// runTraced is the traced run: half the budget untraced (for the
// process-level rows and the tracing overhead's base), then the traced
// legs for the other half. Each traced pass runs every operation's
// entry call again, checked like an untraced one, and then its leg.
func runTraced(ops []op, budget time.Duration, rep *report) {
	c := &checker{rep: rep, first: make([][]byte, len(ops))}
	runUntraced(ops, budget/2, rep, c)
	var untraced struct {
		traces    int
		wall, cpu float64
	}
	for _, p := range rep.Passes {
		untraced.traces += p.Traces
		for i := range p.Wall {
			untraced.wall += p.Wall[i]
			untraced.cpu += p.CPU[i]
		}
	}

	tr := &tracer{}
	var (
		legOps, legTraces int
		legWall, legCPU   time.Duration
	)
	start := time.Now()
	for first := true; first || time.Since(start) < budget/2; first = false {
		for i := range ops {
			o := &ops[i]
			out, ok := c.run(ops, i)
			if !ok || o.leg == nil {
				continue
			}
			isoWall, isoCPU := tr.isoWall, tr.isoCPU
			cpu0, t0 := processCPU(), time.Now()
			n, err := o.leg(tr, out)
			wall, cpu := time.Since(t0), processCPU()-cpu0
			if err != nil {
				c.fail(o.name+" (traced)", err)
				continue
			}
			legOps++
			legTraces += n
			legWall += wall - (tr.isoWall - isoWall)
			legCPU += cpu - (tr.isoCPU - isoCPU)
		}
	}

	layers := map[string]metric{}
	perTraceSum, fixedNs := 0.0, 0.0
	for l := layer(0); l < nLayers; l++ {
		ns := float64(tr.ns[l].Load())
		if perTrace[l] {
			v := ns / 1e3 / float64(max(legTraces, 1))
			layers[layerMetric[l]] = metric{v, "us"}
			perTraceSum += v
		} else {
			layers[layerMetric[l]] = metric{ns / 1e6 / float64(max(legOps, 1)), "ms"}
			fixedNs += ns
		}
	}
	layers["sca.corr_calls"] = metric{float64(tr.corrCalls.Load()) / float64(max(legOps, 1)), "count"}
	prep, scal := tr.prepares.Load(), tr.scalars.Load()
	layers["engine.batch_trace_share"] = metric{float64(prep) / float64(max(prep+scal, 1)), "share"}
	layers["engine.cpu_util"] = metric{untraced.cpu / (untraced.wall * float64(runtime.GOMAXPROCS(0))), "share"}
	legCPUPerTrace := float64(legCPU.Microseconds()) / float64(max(legTraces, 1))
	layers["engine.unattributed_us_per_trace"] = metric{
		legCPUPerTrace - perTraceSum - fixedNs/1e3/float64(max(legTraces, 1)), "us"}
	layers["go.alloc_bytes_per_trace"] = metric{rep.rt.allocBytes / float64(max(untraced.traces, 1)), "B"}
	gcShare := 0.0
	if rep.rt.cpuTotal > 0 {
		gcShare = rep.rt.cpuGC / rep.rt.cpuTotal
	}
	layers["go.gc_cpu_share"] = metric{gcShare, "share"}
	overhead := 0.0
	if legWall > 0 && untraced.wall > 0 {
		overhead = (float64(untraced.traces) / untraced.wall) / (float64(legTraces) / legWall.Seconds())
	}
	layers["bench.trace_overhead"] = metric{overhead, "ratio"}
	rep.Layers = layers
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is the runtime/metrics the go.* rows difference:
// cumulative heap allocation, and the runtime's estimates of GC and
// total CPU time (updated as collections finish).
type runtimeSample struct {
	allocBytes, cpuGC, cpuTotal float64
}

// add accumulates the delta from before to after.
func (r *runtimeSample) add(after, before runtimeSample) {
	r.allocBytes += after.allocBytes - before.allocBytes
	r.cpuGC += after.cpuGC - before.cpuGC
	r.cpuTotal += after.cpuTotal - before.cpuTotal
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
