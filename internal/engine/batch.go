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
// fused expansion amortize over the widest supported batch. The
// end-to-end lane sweep (BenchmarkEngineCPA10kParallel/Lanes32/Lanes64)
// ranks 64 ahead of 16 and 32 since the per-lane execution was reduced
// to hoisted-decode value work. Like ChunkSize it is pure scheduling —
// results are bit-identical for every lane width.
const DefaultLanes = replay.MaxLanes

// errBatchFallback reports that a lane batch could not run (the replay
// schedule is unavailable, still inside its verification window, or a
// lane diverged). The engine replays the affected traces through the
// scalar path, which re-detects any divergence and takes the canonical
// fallback — so results never depend on whether the batch path was
// taken.
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
// contract against the scalar path is void. An errBatchFallback return
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

// BatchGen is the batched form of a Generate: the same per-trace
// semantics split into phases so a lane batch can share one schedule
// walk. For every trace the engine calls Prepare (pre-execution
// randomness, initial core state, hypotheses or class), then — after
// the batch VM replayed all lanes — Verify and Acquire in trace order.
// Per-trace rng draws happen in the same order as the scalar path
// (Prepare's draws before Acquire's), and every trace's stream is
// private, so batch and scalar synthesis are bit-identical.
type BatchGen struct {
	// Synth is the synthesis seam; nil disables the batch path.
	Synth *Synthesizer
	// Model supplies the fused synthesis weights and the expansion
	// parameters Acquire uses.
	Model *power.Model
	// Lanes is the batch width: 0 selects DefaultLanes, negative
	// disables the batch path (scalar synthesis only), otherwise
	// 1..replay.MaxLanes.
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
	// Acquire expands the lane's fused cycle powers into s.Trace,
	// drawing the trace's noise from rng — bit-identical to the scalar
	// path's timeline synthesis. Only consulted when Averages == 0,
	// for acquisitions the fused expansion cannot express (e.g. the
	// OS-noise model's extra draws).
	Acquire func(i int, rng *rand.Rand, cycles []float64, s *Sample) error
	// Scalar is the equivalent per-trace generator, used before the
	// replay schedule is batch-ready and whenever a batch falls back.
	Scalar Generate
}

// lanes resolves the configured batch width.
func (bg *BatchGen) lanes() int {
	if bg.Lanes == 0 {
		return DefaultLanes
	}
	return bg.Lanes
}

// batchable reports whether the batch path is configured at all.
func (bg *BatchGen) batchable() bool {
	return bg.Synth != nil && bg.Model != nil && bg.Prepare != nil &&
		(bg.Averages > 0 || bg.Acquire != nil) && bg.Lanes >= 0
}

// validate rejects a batch generator no runner can drive.
func (bg *BatchGen) validate() error {
	if bg.Scalar == nil {
		return fmt.Errorf("engine: batch generator needs a scalar fallback")
	}
	if bg.Lanes > replay.MaxLanes {
		return fmt.Errorf("engine: %d lanes out of [1,%d]", bg.Lanes, replay.MaxLanes)
	}
	return nil
}

// fill synthesizes the traces of chunk c into bb: lane groups on the
// batch path while it is ready, then bg.Scalar for whatever the batch
// path did not cover — everything before the verification verdict, the
// remainder of a chunk after a fallback.
func (bg *BatchGen) fill(spec *Spec, c chunk, bb *batchBuf) error {
	n := c.end - c.start
	j := 0
	if bg.batchable() {
		// The group loop drives the persistent per-buffer runner, so a
		// steady-state chunk on the fused path allocates nothing.
		lanes := bg.lanes()
		gr := &bb.group
		gr.bg, gr.spec, gr.bb = bg, spec, bb
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
				// rest of the chunk synthesizes on the scalar path,
				// which re-detects any divergence.
				break
			}
			return err
		}
	}
	for ; j < n; j++ {
		i := c.start + j
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
// and through bg.Scalar everywhere else — inside the verification
// window, on divergence, for non-replayable programs. Results are
// bit-identical to Run(cfg, spec, bg.Scalar) for every lane width,
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
// `slot`.
type groupRunner struct {
	bg         *BatchGen
	spec       *Spec
	bb         *batchBuf
	base, slot int
}

// InitLane reseeds the lane's private stream and runs Prepare — the
// same leading draws the scalar path makes.
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
// draws, then the noise draws, in lane order), so the chunk is
// bit-identical to the scalar path.
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
