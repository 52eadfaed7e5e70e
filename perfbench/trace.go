package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/znorm"
)

// layer is one row of the per-layer split. Each accumulates the self
// time of the public calls the traced legs make into it (or, for the
// seams the engine calls back into, of those callbacks).
type layer int

const (
	lReplayBatch layer = iota
	lReplayScalar
	lSimulate
	lZnorm
	lExpandBatch
	lAveraged
	lSynthesize
	lClassAdd
	lCPAAdd
	lClass2Add
	lCorr
	lBuild
	lCompile
	lVerify
	nLayers
)

// perTrace marks the layers reported in microseconds per trace; the
// others are fixed costs reported in milliseconds per operation.
var perTrace = [nLayers]bool{
	lReplayBatch: true, lReplayScalar: true, lSimulate: true, lZnorm: true,
	lExpandBatch: true, lAveraged: true, lSynthesize: true,
	lClassAdd: true, lCPAAdd: true, lClass2Add: true,
}

var layerMetric = [nLayers]string{
	lReplayBatch:  "replay.batch_us_per_trace",
	lReplayScalar: "replay.scalar_us_per_trace",
	lSimulate:     "pipeline.simulate_us_per_trace",
	lZnorm:        "znorm.fill_us_per_trace",
	lExpandBatch:  "power.expand_batch_us_per_trace",
	lAveraged:     "power.averaged_us_per_trace",
	lSynthesize:   "power.synthesize_us_per_trace",
	lClassAdd:     "sca.classcpa_add_us_per_trace",
	lCPAAdd:       "sca.cpa_add_us_per_trace",
	lClass2Add:    "sca.classcpa2_add_us_per_trace",
	lCorr:         "sca.corr_ms",
	lBuild:        "target.build_ms",
	lCompile:      "engine.compile_ms",
	lVerify:       "engine.verify_ms",
}

// tracer accumulates the traced legs' layer times and seam counts. The
// engine calls the seams from its workers, so every field the seams
// touch is atomic.
type tracer struct {
	ns        [nLayers]atomic.Int64
	corrCalls atomic.Int64
	prepares  atomic.Int64 // BatchGen.Prepare calls: traces on the batch path
	scalars   atomic.Int64 // BatchGen.Scalar / Generate calls: traces on the scalar path

	// isoWall and isoCPU total the isolated stage legs, which re-run an
	// engine-internal stage outside the leg; they are taken out of the
	// leg's wall and CPU time.
	isoWall, isoCPU time.Duration
}

func (t *tracer) add(l layer, d time.Duration) { t.ns[l].Add(int64(d)) }

// timeIn runs f and books its duration to l.
func (t *tracer) timeIn(l layer, f func()) {
	s := time.Now()
	f()
	t.add(l, time.Since(s))
}

// isolated runs an isolated stage leg, booking its duration to l and
// keeping it out of the enclosing leg's wall and CPU time.
func (t *tracer) isolated(l layer, f func() error) error {
	c := processCPU()
	s := time.Now()
	err := f()
	d := time.Since(s)
	t.add(l, d)
	t.isoWall += d
	t.isoCPU += processCPU() - c
	return err
}

// runLayer names the layer a Synthesizer.Run call is about to spend its
// self time in: the verify window while an auto-mode synthesizer has
// not finished it, the simulator once it fell back (or in simulate
// mode), scalar replay otherwise.
func runLayer(s *engine.Synthesizer) layer {
	switch {
	case s.Mode() == engine.ModeSimulate || s.FellBack():
		return lSimulate
	case s.Mode() == engine.ModeAuto && !s.BatchReady():
		return lVerify
	}
	return lReplayScalar
}

// laneClock records, per trace, when its Prepare callback started and
// ended and when the first callback after the batch VM (Verify) ran.
// From these, replay.batch time is what Synthesizer.RunBatchBlock
// spends outside its callbacks: lane reset and the batch VM run.
// Each trace index is written by one worker and read after the run.
type laneClock struct {
	base                       time.Time
	prepStart, prepEnd, postVM []int64
}

func newLaneClock(n int) *laneClock {
	return &laneClock{base: time.Now(), prepStart: make([]int64, n), prepEnd: make([]int64, n), postVM: make([]int64, n)}
}

// now is a nonzero timestamp (zero marks "never ran").
func (c *laneClock) now() int64 { return int64(time.Since(c.base)) + 1 }

// vmTime sums, over every lane group that ran on the batch path, the
// span from its first Prepare to its first post-VM callback minus the
// Prepare callbacks' own time. Groups are the engine's: chunks of
// engine.DefaultChunkSize cut at every checkpoint, split into groups of
// engine.DefaultLanes.
func (c *laneClock) vmTime(checkpoints []int) time.Duration {
	n := len(c.prepStart)
	cuts := map[int]bool{n: true}
	for b := engine.DefaultChunkSize; b < n; b += engine.DefaultChunkSize {
		cuts[b] = true
	}
	for _, k := range checkpoints {
		if k < n {
			cuts[k] = true
		}
	}
	bounds := make([]int, 0, len(cuts))
	for b := range cuts {
		bounds = append(bounds, b)
	}
	sort.Ints(bounds)
	var total int64
	start := 0
	for _, end := range bounds {
		for g := start; g < end; g += engine.DefaultLanes {
			ge := min(g+engine.DefaultLanes, end)
			if c.prepStart[g] == 0 || c.postVM[g] == 0 {
				continue
			}
			span := c.postVM[g] - c.prepStart[g]
			for j := g; j < ge; j++ {
				span -= c.prepEnd[j] - c.prepStart[j]
			}
			total += span
		}
		start = end
	}
	return time.Duration(total)
}

// splitMix replicates the engine's per-trace SplitMix64 stream so the
// traced legs can hand the fused expansion a benchmark-owned
// power.NormSource positioned exactly where the engine's own would be.
// The legs' bit-equality checks against the untraced run pin it.
type splitMix struct{ state uint64 }

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (s *splitMix) Uint64() uint64 {
	x := s.state
	s.state += 0x9E3779B97F4A7C15
	return mix64(x)
}
func (s *splitMix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }

// traceState is trace i's stream state under seed (engine.TraceRNG).
func traceState(seed int64, i int) uint64 { return mix64(mix64(uint64(seed)) + uint64(i)) }

// timedNorm is the benchmark's power.NormSource: znorm.Fill over a
// trace's stream state, timed.
type timedNorm struct {
	state *uint64
	d     time.Duration
}

func (n *timedNorm) FillNorm(dst []float64) {
	s := time.Now()
	znorm.Fill(dst, n.state)
	n.d += time.Since(s)
}

// expandPool recycles one-lane batch expansions (and their noise
// scratch) across the traced Acquire callbacks.
var expandPool = sync.Pool{New: func() any {
	return &power.BatchExpand{
		Rows: make([][]float64, 1), Out: make([]trace.Trace, 1),
		Noise: make([]power.NormSource, 1), Lanes: 1,
	}
}}

// expandTimed expands one lane's cycle powers through
// power.Model.ExpandCyclesBatch with a timed noise source, booking the
// noise draws to znorm and the rest to power.expand_batch.
func (t *tracer) expandTimed(m *power.Model, dst trace.Trace, cycles []float64, state *uint64, avg int) trace.Trace {
	ns := &timedNorm{state: state}
	be := expandPool.Get().(*power.BatchExpand)
	be.Rows[0], be.Out[0], be.Noise[0], be.Avg = cycles, dst, ns, avg
	s := time.Now()
	m.ExpandCyclesBatch(be)
	d := time.Since(s)
	out := be.Out[0]
	be.Rows[0], be.Out[0], be.Noise[0] = nil, nil, nil
	expandPool.Put(be)
	t.add(lZnorm, ns.d)
	t.add(lExpandBatch, d-ns.d)
	return out
}

// capture keeps copies of the first chunk's traces and model inputs,
// the input of the isolated accumulation legs. Slots are written by
// distinct workers and read after the run.
type capture struct {
	traces  [][]float64
	classes [][]int     // [bank][trace] model-input classes (class banks)
	hyps    [][]float64 // [trace] hypothesis vectors (one classic bank)
}

func newCapture(n, classBanks int, withHyps bool) *capture {
	k := min(n, engine.DefaultChunkSize)
	c := &capture{traces: make([][]float64, k), classes: make([][]int, classBanks)}
	for b := range c.classes {
		c.classes[b] = make([]int, k)
	}
	if withHyps {
		c.hyps = make([][]float64, k)
	}
	return c
}

// keep copies trace i's sample and model inputs if i is in the chunk.
func (c *capture) keep(i int, tr []float64, class []int, hyps []float64) {
	if i >= len(c.traces) {
		return
	}
	c.traces[i] = append([]float64(nil), tr...)
	for b := range c.classes {
		c.classes[b][i] = class[b]
	}
	if c.hyps != nil {
		c.hyps[i] = append([]float64(nil), hyps...)
	}
}

// replay calls add with the first k captured traces, for chunks of k
// covering n traces: the accumulation work the engine's reducer did
// for the leg.
func (c *capture) replay(n int, add func(k int) error) error {
	for done := 0; done < n; {
		k := min(len(c.traces), n-done)
		if err := add(k); err != nil {
			return err
		}
		done += k
	}
	return nil
}
