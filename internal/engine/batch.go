package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sca"
	"repro/internal/trace"
)

// DefaultLanes is the default batch width of the lane-parallel replay
// path: the full DefaultChunkSize, so a steady-state chunk is exactly
// one lane group and the per-step schedule walk, scatter setup and
// fused expansion amortize over the widest supported batch. An
// end-to-end sweep of the 10k-trace Figure 3 attack over lane widths
// ranked 64 ahead of 16 and 32 once the per-lane execution was reduced
// to hoisted-decode value work; perfbench's fig3-10k workload measures
// the default. Like ChunkSize it is pure scheduling — results are
// bit-identical for every lane width.
const DefaultLanes = replay.MaxLanes

// errBatchFallback reports that a lane batch could not run (the replay
// schedule is unavailable, still inside its verification window, or a
// lane diverged). The engine synthesizes the affected traces one
// Synthesizer.Run at a time, which re-detects any divergence and takes
// the canonical fallback — so results never depend on whether the
// batch path was taken.
var errBatchFallback = errors.New("engine: batch synthesis unavailable")

// BatchReady reports whether the lane-parallel replay path may run now:
// the compiled schedule exists and — in auto mode — the leading
// bit-compare verification window has fully passed with no fallback.
// The answer can flip to false at any time (a later divergence); the
// batch runner re-checks per batch.
func (s *Synthesizer) BatchReady() bool {
	switch s.mode {
	case ModeSimulate:
		return false
	case ModeReplay:
		return true
	default:
		return !s.fellBack.Load() && s.verified.Load() >= VerifyRuns && s.verifying.Load() == 0
	}
}

// BatchRuns returns how many lane batches the Synthesizer has replayed —
// nonzero means the batch path really ran.
func (s *Synthesizer) BatchRuns() int64 { return s.batchRuns.Load() }

// BatchDisabledReason returns why the lane-parallel path is permanently
// off ("" while it is available): a schedule whose drives cannot be
// lowered to the fused event form. The scalar replay path is unaffected.
func (s *Synthesizer) BatchDisabledReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batchErr != nil {
		return s.batchErr.Error()
	}
	return ""
}

// batchProgram returns the lane-parallel schedule, lowering it from the
// compiled replay program on first use. A nil return means the batch
// path cannot run yet (no compiled program) or ever (lowering failed);
// the scalar path is the fallback either way.
func (s *Synthesizer) batchProgram() *replay.BatchProgram {
	if bp := s.batchProg.Load(); bp != nil {
		return bp
	}
	p := s.compiled.Load()
	if p == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if bp := s.batchProg.Load(); bp != nil {
		return bp
	}
	if s.batchTried {
		return nil
	}
	s.batchTried = true
	bp, err := replay.CompileBatch(p)
	if err != nil {
		s.batchErr = err
		return nil
	}
	s.batchProg.Store(bp)
	return bp
}

// batchScratch is one worker's lane-batch state: one pooled core per
// lane plus the SoA batch VM and the lane-major row views handed to
// BlockRunner.Block.
type batchScratch struct {
	cores []*pipeline.Core
	vm    *replay.BatchVM
	rows  [][]float64
}

// ensure grows the scratch to n lanes over program bp.
func (sc *batchScratch) ensure(cfg pipeline.Config, bp *replay.BatchProgram, n int) error {
	for len(sc.cores) < n {
		core := pipeline.MustNew(cfg, nil)
		core.SetReuseBuffers(true)
		sc.cores = append(sc.cores, core)
	}
	if sc.vm == nil || sc.vm.Lanes() < n {
		lanes := DefaultLanes
		if n > lanes {
			lanes = replay.MaxLanes
		}
		vm, err := replay.NewBatchVM(bp, lanes)
		if err != nil {
			return err
		}
		sc.vm = vm
	}
	return nil
}

// BlockRunner is the callback pair of RunBatchBlock: InitLane prepares
// one lane's initial architectural state, Block consumes the whole lane
// batch at once. The interface form (rather than function values) lets
// hot callers keep one persistent runner per worker, so the steady-state
// batch path allocates nothing per chunk.
type BlockRunner interface {
	// InitLane prepares lane's initial architectural state on a freshly
	// wiped core; called once per lane in ascending order.
	InitLane(lane int, core *pipeline.Core) error
	// Block receives the whole batch after the VM replayed all lanes:
	// rows[lane] is that lane's per-cycle noiseless power (bit-identical
	// to power.Model.CyclePowers over the execution's timeline) and
	// cores[lane] holds its final architectural state. Both are valid
	// only during the call.
	Block(rows [][]float64, cores []*pipeline.Core) error
}

// RunBatchBlock executes the program n times at once on the
// lane-parallel replay path: r.InitLane prepares each lane's initial
// architectural state on a freshly wiped core, the batch VM replays all
// lanes with fused power synthesis, and r.Block receives every lane's
// cycle-power row together — the shape the fused batch expansion
// (power.ExpandCyclesBatch) consumes.
//
// The power model supplies the fused synthesis weights; it must be the
// model the caller expands the cycle powers with, or the bit-identity
// contract against Run is void. An errBatchFallback return
// means no lane was delivered and the caller must synthesize those
// traces through Run; any other error is a genuine failure.
// RunBatchBlock is safe to call concurrently with itself and with Run.
func (s *Synthesizer) RunBatchBlock(m *power.Model, n int, r BlockRunner) error {
	if n < 1 || n > replay.MaxLanes {
		return fmt.Errorf("engine: batch of %d lanes out of [1,%d]", n, replay.MaxLanes)
	}
	if !s.BatchReady() {
		return errBatchFallback
	}
	bp := s.batchProgram()
	if bp == nil {
		return errBatchFallback
	}
	sc := s.batchPool.Get().(*batchScratch)
	defer s.batchPool.Put(sc)
	if err := sc.ensure(s.cfg, bp, n); err != nil {
		return err
	}
	for lane := 0; lane < n; lane++ {
		core := sc.cores[lane]
		core.ResetState()
		core.SetHierarchy(nil)
		core.Mem().Wipe()
		if err := r.InitLane(lane, core); err != nil {
			return err
		}
	}
	sc.vm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
	if err := sc.vm.Run(sc.cores[:n]); err != nil {
		if s.mode == ModeReplay {
			// Replay is asserted: divergence is a hard error, as on the
			// scalar path.
			return err
		}
		return fmt.Errorf("%w: %v", errBatchFallback, err)
	}
	s.batchRuns.Add(1)
	rows := sc.rows[:0]
	for lane := 0; lane < n; lane++ {
		rows = append(rows, sc.vm.Power(lane))
	}
	sc.rows = rows
	return r.Block(rows, sc.cores[:n])
}

// BatchGen defines an acquisition as phases: for every trace the engine
// calls Prepare (pre-execution randomness, initial core state,
// hypotheses or class), executes the program, then calls Verify and
// expands the cycle powers (Averages or Acquire). A lane batch runs the
// phases over one shared schedule walk; a trace outside a lane batch —
// inside the verification window, after a fallback, at Lanes < 0, or
// under ModeSimulate — runs the same phases on one Synthesizer.Run
// execution, its cycle powers taken from the timeline. Both paths make
// the same per-trace rng draws in the same order (Prepare's, then the
// expansion's, on the trace's private stream), so they are
// bit-identical by construction.
type BatchGen struct {
	// Synth is the synthesis seam; nil disables the batch path.
	Synth *Synthesizer
	// Model supplies the fused synthesis weights and the expansion
	// parameters Acquire uses.
	Model *power.Model
	// Lanes is the batch width: 0 selects DefaultLanes, negative
	// disables the batch path (one Synthesizer.Run per trace),
	// otherwise 1..replay.MaxLanes.
	Lanes int
	// Prepare draws the trace's pre-execution randomness (e.g. the
	// plaintext, kept in s.Aux), initializes the core's architectural
	// state and fills s.Hyps / s.Class.
	Prepare func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error
	// Verify, if set, checks the final architectural state (the
	// functional oracle). Errors are genuine failures, not fallbacks.
	Verify func(i int, core *pipeline.Core, s *Sample) error
	// Averages, when positive, selects the fused batch expansion: the
	// engine expands every lane's cycle powers into its trace in one
	// lane-major pass (power.ExpandCyclesBatch) with Averages-fold
	// averaging, drawing each trace's Gaussian noise in bulk from its
	// private stream — bit-identical to Averages repetitions of
	// Model.ExpandCyclesInto averaged per trace, and to the Acquire
	// form below over the same streams. Acquire is then unused.
	Averages int
	// Acquire expands the lane's cycle powers into s.Trace, drawing the
	// trace's noise from rng. Only consulted when Averages == 0,
	// for acquisitions the fused expansion cannot express (e.g. the
	// OS-noise model's extra draws).
	Acquire func(i int, rng *rand.Rand, cycles []float64, s *Sample) error
	// Scalar, if set, synthesizes every trace outside a lane batch in
	// place of the phases. It is for generators the phases cannot
	// express (e.g. Run's Generate, which has no Synthesizer); with the
	// phases set too, it must be bit-identical to them.
	Scalar Generate
}

// lanes resolves the configured batch width.
func (bg *BatchGen) lanes() int {
	if bg.Lanes == 0 {
		return DefaultLanes
	}
	return bg.Lanes
}

// phased reports whether the phases fully define a trace.
func (bg *BatchGen) phased() bool {
	return bg.Synth != nil && bg.Model != nil && bg.Prepare != nil &&
		(bg.Averages > 0 || bg.Acquire != nil)
}

// validate rejects a batch generator no runner can drive.
func (bg *BatchGen) validate() error {
	if bg.Scalar == nil && !bg.phased() {
		return fmt.Errorf("engine: batch generator needs a scalar generator or a complete phase set")
	}
	if bg.Lanes > replay.MaxLanes {
		return fmt.Errorf("engine: %d lanes out of [1,%d]", bg.Lanes, replay.MaxLanes)
	}
	return nil
}

// fill synthesizes the traces of chunk c into bb: lane groups on the
// batch path while it is ready, then one trace at a time for whatever
// the batch path did not cover — everything before the verification
// verdict, the remainder of a chunk after a fallback.
func (bg *BatchGen) fill(spec *Spec, c chunk, bb *batchBuf) error {
	n := c.end - c.start
	j := 0
	// The persistent per-buffer runner drives both paths, so a
	// steady-state chunk on the fused path allocates nothing.
	gr := &bb.group
	gr.bg, gr.spec, gr.bb = bg, spec, bb
	if bg.phased() && bg.Lanes >= 0 {
		lanes := bg.lanes()
		for j < n {
			l := lanes
			if l > n-j {
				l = n - j
			}
			gr.base, gr.slot = c.start+j, j
			err := bg.Synth.RunBatchBlock(bg.Model, l, gr)
			if err == nil {
				j += l
				continue
			}
			if errors.Is(err, errBatchFallback) {
				// The batch path is unavailable or a lane diverged: the
				// rest of the chunk synthesizes one trace at a time,
				// which re-detects any divergence.
				break
			}
			return err
		}
	}
	for ; j < n; j++ {
		i := c.start + j
		if bg.Scalar == nil {
			gr.base, gr.slot = i, j
			if err := gr.runOne(); err != nil {
				return err
			}
			continue
		}
		s := &bb.samples[j]
		s.Trace = s.Trace[:0]
		reseedTraceRNG(bb.rngs[j], spec.Seed, i)
		if err := bg.Scalar(i, bb.rngs[j], s); err != nil {
			return fmt.Errorf("engine: trace %d: %w", i, err)
		}
		if err := bb.record(spec, j, i); err != nil {
			return err
		}
	}
	return nil
}

// RunBatched executes the streaming CPA described by spec, synthesizing
// traces through the lane-parallel replay path where it is available
// and one Synthesizer.Run at a time everywhere else — inside the
// verification window, on divergence, for non-replayable programs.
// Results are bit-identical for every lane width (Lanes < 0 included),
// worker count and chunk size.
func RunBatched(cfg Config, spec Spec, bg BatchGen) ([]sca.Accumulator, error) {
	if err := bg.validate(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	global, err := newBanks(spec.Banks, spec.Samples)
	if err != nil {
		return nil, err
	}
	ckpt := 0
	err = runChunked(cfg, &spec, &bg, func(c chunk, bb *batchBuf) error {
		n := c.end - c.start
		for b, acc := range global {
			var err error
			switch a := acc.(type) {
			case *sca.CPA:
				err = a.AddBatch(bb.traces[:n], bb.hyps[b][:n])
			case *sca.ClassCPA:
				err = a.AddBatch(bb.classes[b][:n], bb.traces[:n])
			case *sca.ClassCPA2:
				err = a.AddBatch(bb.classes[b][:n], bb.traces[:n])
			}
			if err != nil {
				return fmt.Errorf("engine: traces [%d,%d): %w", c.start, c.end, err)
			}
		}
		if ckpt < len(spec.Checkpoints) && c.end == spec.Checkpoints[ckpt] {
			if spec.OnCheckpoint != nil {
				spec.OnCheckpoint(c.end, global)
			}
			ckpt++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return global, nil
}

// Emit receives trace i in strict index order on the reducer; it
// typically appends to a file. The trace and aux record are valid only
// during the call. Returning an error aborts the stream.
type Emit func(i int, t trace.Trace, aux []byte) error

// StreamBatched synthesizes n traces through bg on the same scheduler
// as RunBatched and hands each trace with its Sample.Aux record
// (typically the plaintext) to emit in trace-index order, so at most
// ~workers chunks of traces are ever in memory — the parallel producer
// behind tools that write trace sets without materializing them. The
// emitted stream is identical for every lane width, worker count and
// chunk size.
func StreamBatched(cfg Config, n int, seed int64, bg BatchGen, emit Emit) error {
	if err := bg.validate(); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("engine: need at least 1 trace, got %d", n)
	}
	spec := Spec{Traces: n, Seed: seed}
	return runChunked(cfg, &spec, &bg, func(c chunk, bb *batchBuf) error {
		for j := 0; j < c.end-c.start; j++ {
			s := &bb.samples[j]
			if err := emit(c.start+j, s.Trace, s.Aux); err != nil {
				return err
			}
		}
		return nil
	})
}

// groupRunner is the persistent BlockRunner of the batched CPA path:
// one lives in every chunk buffer, repointed per lane group, so the
// steady-state fused path allocates nothing. It synthesizes the l
// traces [base, base+l) into the chunk buffer starting at sample slot
// `slot` — l = 1 for a trace outside a lane batch (runOne).
type groupRunner struct {
	bg         *BatchGen
	spec       *Spec
	bb         *batchBuf
	base, slot int
	// phaseErr is the last phase error runOne's callbacks returned, so
	// runOne wraps only the Synthesizer's own errors with the trace.
	phaseErr error
}

// runOne synthesizes trace base into slot on one Synthesizer.Run
// execution, through the same phases as a lane group: InitLane as the
// run's init, and the timeline's cycle powers as a one-lane block.
func (g *groupRunner) runOne() error {
	g.phaseErr = nil
	err := g.bg.Synth.run(g.initOne, g.useOne)
	if err != nil && err != g.phaseErr {
		return fmt.Errorf("engine: trace %d: %w", g.base, err)
	}
	return err
}

func (g *groupRunner) initOne(core *pipeline.Core) error {
	g.phaseErr = g.InitLane(0, core)
	return g.phaseErr
}

func (g *groupRunner) useOne(tl pipeline.Timeline, core *pipeline.Core) error {
	bb := g.bb
	bb.cycles = g.bg.Model.CyclePowers(bb.cycles, tl)
	bb.oneRow[0], bb.oneCore[0] = bb.cycles, core
	g.phaseErr = g.Block(bb.oneRow[:], bb.oneCore[:])
	return g.phaseErr
}

// InitLane reseeds the lane's private stream and runs Prepare — the
// trace's leading draws.
func (g *groupRunner) InitLane(lane int, core *pipeline.Core) error {
	i, j := g.base+lane, g.slot+lane
	s := &g.bb.samples[j]
	s.Trace = s.Trace[:0]
	reseedTraceRNG(g.bb.rngs[j], g.spec.Seed, i)
	if err := g.bg.Prepare(i, g.bb.rngs[j], core, s); err != nil {
		return fmt.Errorf("engine: trace %d: %w", i, err)
	}
	return nil
}

// Block verifies every lane's final state, expands the lane block into
// traces — through the fused batch expansion when Averages is set,
// otherwise per lane through Acquire — and records the results. Each
// trace's stream continues exactly where Prepare left it (Prepare's
// draws, then the noise draws, in lane order), whatever the block's
// width.
func (g *groupRunner) Block(rows [][]float64, cores []*pipeline.Core) error {
	bg, bb := g.bg, g.bb
	if bg.Verify != nil {
		for lane := range rows {
			i := g.base + lane
			if err := bg.Verify(i, cores[lane], &bb.samples[g.slot+lane]); err != nil {
				return fmt.Errorf("engine: trace %d: %w", i, err)
			}
		}
	}
	if bg.Averages > 0 {
		be := &bb.expand
		be.Rows = rows
		be.Lanes = len(rows)
		be.Avg = bg.Averages
		be.Out = be.Out[:0]
		be.Noise = be.Noise[:0]
		for lane := range rows {
			j := g.slot + lane
			be.Out = append(be.Out, bb.samples[j].Trace)
			be.Noise = append(be.Noise, bb.srcs[j])
		}
		bg.Model.ExpandCyclesBatch(be)
		for lane := range rows {
			bb.samples[g.slot+lane].Trace = be.Out[lane]
		}
		be.Rows = nil
	} else {
		for lane := range rows {
			i, j := g.base+lane, g.slot+lane
			if err := bg.Acquire(i, bb.rngs[j], rows[lane], &bb.samples[j]); err != nil {
				return fmt.Errorf("engine: trace %d: %w", i, err)
			}
		}
	}
	for lane := range rows {
		if err := bb.record(g.spec, g.slot+lane, g.base+lane); err != nil {
			return err
		}
	}
	return nil
}
