package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
	"repro/internal/trace"
)

// batchFixture is a miniature attack over a replayable program: one
// register drawn per trace, a two-hypothesis bank keyed on its parity.
type batchFixture struct {
	prog *isa.Program
	cfg  pipeline.Config
	m    power.Model
	spec Spec
}

func newBatchFixture(traces int) *batchFixture {
	f := &batchFixture{
		prog: isa.MustAssemble("add r0, r1, r2\nstr r0, [r8]\neor r3, r0, r1\nnop"),
		cfg:  pipeline.DefaultConfig(),
		m:    power.DefaultModel(),
	}
	f.m.SamplesPerCycle = 2
	cal := pipeline.MustNew(f.cfg, nil)
	res, err := cal.Run(f.prog)
	if err != nil {
		panic(err)
	}
	f.spec = Spec{
		Traces:  traces,
		Samples: len(res.Timeline) * f.m.SamplesPerCycle,
		Banks:   HypothesisBanks(2),
		Seed:    7,
	}
	return f
}

func (f *batchFixture) initCore(core *pipeline.Core, v uint32) {
	core.SetRegs(0, v, 0x5A5A5A5A)
	core.SetReg(isa.R8, 0x100)
}

func (f *batchFixture) hyps(v uint32, hyps []float64) {
	hyps[0] = float64(v & 1)
	hyps[1] = 1 - float64(v&1)
}

// newSynth returns a fresh Synthesizer of the given mode over prog.
func newSynth(t *testing.T, mode Mode, cfg pipeline.Config, prog *isa.Program) *Synthesizer {
	t.Helper()
	synth, err := NewSynthesizer(mode, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return synth
}

// ref is the fixture's hand-written per-trace generator over a fresh
// Synthesizer of the given mode: the independent reference, run through
// Run, that the phases of gen must reproduce bit for bit.
func (f *batchFixture) ref(t *testing.T, mode Mode) Generate {
	synth := newSynth(t, mode, f.cfg, f.prog)
	return func(i int, rng *rand.Rand, s *Sample) error {
		v := rng.Uint32()
		return synth.Run(
			func(core *pipeline.Core) { f.initCore(core, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				s.Trace, s.Scratch = f.m.SynthesizeAveragedInto(s.Trace, s.Scratch, tl, rng, 2)
				f.hyps(v, s.Hyps[0])
				return nil
			})
	}
}

// gen builds the fixture's phase-only batch generator (no Scalar: the
// engine derives every non-batch trace from the phases) over a fresh
// Synthesizer of the given mode. It uses the per-lane Acquire form;
// genFused swaps in the fused block expansion.
func (f *batchFixture) gen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth := newSynth(t, mode, f.cfg, f.prog)
	return BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			f.initCore(core, v)
			f.hyps(v, s.Hyps[0])
			return nil
		},
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace, s.Scratch = f.m.AveragedCyclesInto(s.Trace, s.Scratch, cycles, rng, 2)
			return nil
		},
	}, synth
}

// genFused is gen with the fused block expansion in place of the
// per-lane Acquire: the engine expands the whole lane block itself,
// drawing each trace's noise in bulk.
func (f *batchFixture) genFused(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	bg, synth := f.gen(t, mode, lanes)
	bg.Averages = 2
	bg.Acquire = nil
	return bg, synth
}

// TestRunBatchedBitIdenticalToScalar is the engine-level lane sweep:
// a phase-only generator must reproduce the hand-written per-trace
// reference bit for bit in every synthesis mode, for every lane width
// (including Lanes -1, where the engine derives every trace from the
// phases, the single-lane degenerate batch, widths that do not divide
// the chunk size, the widths beyond the old 32-lane mask word — 33, 48
// — and the 64-lane maximum), any worker count and chunk size, and on
// both the per-lane Acquire form and the fused block expansion.
func TestRunBatchedBitIdenticalToScalar(t *testing.T) {
	f := newBatchFixture(333)
	ref, err := Run(Config{Workers: 1}, f.spec, f.ref(t, ModeSimulate))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeAuto, ModeReplay, ModeSimulate} {
		for _, tc := range []struct{ lanes, workers, chunk int }{
			{-1, 1, 0}, {-1, 3, 50}, {0, 1, 0}, {1, 1, 0}, {8, 2, 0}, {16, 4, 32}, {32, 3, 48},
			{24, 2, 50}, {5, 1, 7}, {33, 2, 50}, {48, 3, 0}, {64, 2, 96}, {64, 1, 70},
		} {
			for _, fused := range []bool{false, true} {
				where := fmt.Sprintf("mode=%v lanes=%d workers=%d chunk=%d fused=%v",
					mode, tc.lanes, tc.workers, tc.chunk, fused)
				var bg BatchGen
				var synth *Synthesizer
				if fused {
					bg, synth = f.genFused(t, mode, tc.lanes)
				} else {
					bg, synth = f.gen(t, mode, tc.lanes)
				}
				got, err := RunBatched(Config{Workers: tc.workers, ChunkSize: tc.chunk}, f.spec, bg)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !got[0].(*sca.CPA).Equal(ref[0].(*sca.CPA)) {
					t.Fatalf("%s: accumulator differs from the per-trace reference", where)
				}
				checkBatchRan(t, where, synth, mode, tc.lanes)
				if reason := synth.BatchDisabledReason(); reason != "" {
					t.Fatalf("%s: batch disabled: %s", where, reason)
				}
				if synth.FellBack() {
					t.Fatalf("%s: replay fell back on an input-invariant schedule", where)
				}
			}
		}
	}
}

// checkBatchRan checks that the batch path ran exactly when it must.
// Auto mode fixes the path choice (the verify-window barrier); forced
// replay compiles on whichever chunk runs first, so with several
// workers its first chunks may all miss the batch path.
func checkBatchRan(t *testing.T, where string, synth *Synthesizer, mode Mode, lanes int) {
	t.Helper()
	switch ran := synth.BatchRuns() > 0; {
	case ran && (mode == ModeSimulate || lanes < 0):
		t.Fatalf("%s: batch path ran", where)
	case !ran && mode == ModeAuto && lanes >= 0:
		t.Fatalf("%s: batch path never ran", where)
	}
}

// TestRunBatchedVerifyWindowStaysScalar pins the first-chunk guard: the
// batch path must not run before the auto-mode verification window
// completed, so a run of exactly one verification window never batches.
func TestRunBatchedVerifyWindowStaysScalar(t *testing.T) {
	f := newBatchFixture(VerifyRuns)
	f.spec.Traces = VerifyRuns
	bg, synth := f.gen(t, ModeAuto, 8)
	if _, err := RunBatched(Config{Workers: 1}, f.spec, bg); err != nil {
		t.Fatal(err)
	}
	if synth.BatchRuns() != 0 {
		t.Fatalf("batch ran %d times inside the verification window", synth.BatchRuns())
	}
	if v := synth.verified.Load(); v < VerifyRuns {
		t.Fatalf("only %d of %d runs verified", v, VerifyRuns)
	}
}

// TestRunBatchedSimulateNeverBatches pins ModeSimulate: the batch path
// must stay off entirely.
func TestRunBatchedSimulateNeverBatches(t *testing.T) {
	f := newBatchFixture(100)
	bg, synth := f.gen(t, ModeSimulate, 8)
	if _, err := RunBatched(Config{Workers: 2}, f.spec, bg); err != nil {
		t.Fatal(err)
	}
	if synth.BatchRuns() != 0 {
		t.Fatal("batch path ran under ModeSimulate")
	}
}

// TestRunBatchedScalarWinsWhenSet pins the precedence of a set Scalar:
// every trace outside a lane batch comes from it, not from the phases.
// The Scalar here deliberately differs from the phases (its traces are
// offset by one), so a run synthesizing no lane batch (Lanes -1, or
// pure simulation) must equal the Scalar alone run through Run, and a
// phase-only run must not.
func TestRunBatchedScalarWinsWhenSet(t *testing.T) {
	f := newBatchFixture(120)
	offset := func(gen Generate) Generate {
		return func(i int, rng *rand.Rand, s *Sample) error {
			if err := gen(i, rng, s); err != nil {
				return err
			}
			for k := range s.Trace {
				s.Trace[k]++
			}
			return nil
		}
	}
	want, err := Run(Config{Workers: 1}, f.spec, offset(f.ref(t, ModeSimulate)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode  Mode
		lanes int
	}{{ModeAuto, -1}, {ModeReplay, -1}, {ModeSimulate, 8}} {
		where := fmt.Sprintf("mode=%v lanes=%d", tc.mode, tc.lanes)
		bg, synth := f.gen(t, tc.mode, tc.lanes)
		phases, err := RunBatched(Config{Workers: 2}, f.spec, bg)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if phases[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("%s: the offset Scalar is indistinguishable from the phases", where)
		}
		bg, synth = f.gen(t, tc.mode, tc.lanes)
		bg.Scalar = offset(f.ref(t, ModeSimulate))
		got, err := RunBatched(Config{Workers: 2}, f.spec, bg)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("%s: accumulator differs from the Scalar run alone", where)
		}
		if synth.BatchRuns() != 0 {
			t.Fatalf("%s: batch path ran", where)
		}
	}
}

// divergeFixture builds a program with a pinned conditional whose
// outcome flips on one designated trace, so the batch path hits a
// mid-run divergence after the verification window passed.
type divergeFixture struct {
	prog *isa.Program
	cfg  pipeline.Config
	m    power.Model
	spec Spec
	bad  int
}

func newDivergeFixture(traces, bad int) *divergeFixture {
	f := &divergeFixture{
		// cmp + conditional store: pinned (memory conditional). The
		// reference and all conforming traces pass the condition.
		prog: isa.MustAssemble("cmp r0, #0\nstreq r1, [r8]\nadd r2, r1, r1"),
		cfg:  pipeline.DefaultConfig(),
		m:    power.DefaultModel(),
		bad:  bad,
	}
	f.m.SamplesPerCycle = 2
	cal := pipeline.MustNew(f.cfg, nil)
	cal.SetReg(isa.R8, 0x100)
	res, err := cal.Run(f.prog)
	if err != nil {
		panic(err)
	}
	f.spec = Spec{
		Traces:  traces,
		Samples: len(res.Timeline) * f.m.SamplesPerCycle,
		Banks:   HypothesisBanks(2),
		Seed:    3,
	}
	return f
}

func (f *divergeFixture) initCore(core *pipeline.Core, i int, v uint32) {
	var r0 uint32
	if i == f.bad {
		r0 = 1 // condition fails: leaves the compiled schedule
	}
	core.SetReg(isa.R0, r0)
	core.SetReg(isa.R1, v)
	core.SetReg(isa.R8, 0x100)
}

// ref is the hand-written per-trace reference of gen, run through Run.
func (f *divergeFixture) ref(t *testing.T, mode Mode) Generate {
	synth := newSynth(t, mode, f.cfg, f.prog)
	return func(i int, rng *rand.Rand, s *Sample) error {
		v := rng.Uint32()
		return synth.Run(
			func(core *pipeline.Core) { f.initCore(core, i, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				s.Trace, s.Scratch = f.m.SynthesizeAveragedInto(s.Trace, s.Scratch, tl, rng, 1)
				s.Hyps[0][0] = float64(v & 1)
				s.Hyps[0][1] = 1 - float64(v&1)
				return nil
			})
	}
}

// gen is the phase-only batch generator over the diverging program.
func (f *divergeFixture) gen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth := newSynth(t, mode, f.cfg, f.prog)
	return BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			f.initCore(core, i, v)
			s.Hyps[0][0] = float64(v & 1)
			s.Hyps[0][1] = 1 - float64(v&1)
			return nil
		},
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace, s.Scratch = f.m.AveragedCyclesInto(s.Trace, s.Scratch, cycles, rng, 1)
			return nil
		},
	}, synth
}

// TestRunBatchedDivergenceFallsBackToSimulation forces a divergence
// after the verification window: the diverging batch must be
// resynthesized one trace at a time (which takes the canonical simulate
// fallback), and the final accumulators must equal the per-trace
// reference under pure simulation bit for bit — also at Lanes -1, where
// the divergence surfaces in the scalar replay VM instead.
func TestRunBatchedDivergenceFallsBackToSimulation(t *testing.T) {
	const traces, bad = 160, 130 // bad lands in a post-window batch
	sim := newDivergeFixture(traces, bad)
	want, err := Run(Config{Workers: 1}, sim.spec, sim.ref(t, ModeSimulate))
	if err != nil {
		t.Fatal(err)
	}
	// Lane widths on both sides of the old 32-lane mask word: divergence
	// detection and fallback parity must be width-independent.
	for _, lanes := range []int{-1, 1, 8, 48, 64} {
		f := newDivergeFixture(traces, bad)
		bg, synth := f.gen(t, ModeAuto, lanes)
		got, err := RunBatched(Config{Workers: 1}, f.spec, bg)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if ran := synth.BatchRuns() > 0; ran != (lanes >= 0) {
			t.Fatalf("lanes=%d: batch path ran = %v before the divergence", lanes, ran)
		}
		if !synth.FellBack() {
			t.Fatalf("lanes=%d: auto mode did not fall back on the diverging trace", lanes)
		}
		if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("lanes=%d: diverging run differs from pure simulation", lanes)
		}
	}
	// Forced replay turns the divergence into a hard error on both paths.
	for _, lanes := range []int{-1, 8} {
		f := newDivergeFixture(traces, bad)
		bg, _ := f.gen(t, ModeReplay, lanes)
		if _, err := RunBatched(Config{Workers: 1}, f.spec, bg); err == nil {
			t.Fatalf("lanes=%d: forced replay accepted a diverging trace", lanes)
		}
	}
}

// streamGen is gen reshaped for StreamBatched: no banks, the drawn
// operand travels in s.Aux, Verify checks the final register against
// it, and each trace is one unaveraged expansion into the recycled
// trace storage — per lane through Acquire, or, with fused set, through
// the fused block expansion at Averages 1. streamRef is its hand-written
// per-trace reference.
func (f *batchFixture) streamGen(t *testing.T, mode Mode, lanes int, fused bool) (BatchGen, *Synthesizer) {
	t.Helper()
	synth := newSynth(t, mode, f.cfg, f.prog)
	bg := BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			f.initCore(core, streamDraw(rng, s))
			return nil
		},
		Verify: streamVerify,
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace = f.m.ExpandCyclesInto(s.Trace, cycles, rng)
			return nil
		},
	}
	if fused {
		bg.Averages, bg.Acquire = 1, nil
	}
	return bg, synth
}

func (f *batchFixture) streamRef(t *testing.T, mode Mode) BatchGen {
	synth := newSynth(t, mode, f.cfg, f.prog)
	return BatchGen{Scalar: func(i int, rng *rand.Rand, s *Sample) error {
		v := streamDraw(rng, s)
		return synth.Run(
			func(core *pipeline.Core) { f.initCore(core, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				if err := streamVerify(i, core, s); err != nil {
					return err
				}
				s.Trace = f.m.SynthesizeInto(s.Trace, tl, rng)
				return nil
			})
	}}
}

// streamDraw draws a stream trace's operand into s.Aux.
func streamDraw(rng *rand.Rand, s *Sample) uint32 {
	v := rng.Uint32()
	s.Aux = binary.LittleEndian.AppendUint32(s.Aux[:0], v)
	return v
}

// streamVerify checks a stream trace's final register against its operand.
func streamVerify(i int, core *pipeline.Core, s *Sample) error {
	if got, want := core.Reg(isa.R0), binary.LittleEndian.Uint32(s.Aux)+0x5A5A5A5A; got != want {
		return fmt.Errorf("trace %d: r0 = %#x, want %#x", i, got, want)
	}
	return nil
}

// stream runs StreamBatched and returns private copies of every
// emitted trace and aux record, checking strict index order.
func stream(t *testing.T, cfg Config, n int, seed int64, bg BatchGen) ([]trace.Trace, [][]byte) {
	t.Helper()
	var traces []trace.Trace
	var auxes [][]byte
	err := StreamBatched(cfg, n, seed, bg, func(i int, tr trace.Trace, aux []byte) error {
		if i != len(traces) {
			return fmt.Errorf("emitted trace %d, want %d", i, len(traces))
		}
		traces = append(traces, append(trace.Trace(nil), tr...))
		auxes = append(auxes, append([]byte(nil), aux...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return traces, auxes
}

// sameStream reports the first difference between two emitted streams,
// bit for bit ("" when identical).
func sameStream(aT, bT []trace.Trace, aA, bA [][]byte) string {
	if len(aT) != len(bT) {
		return fmt.Sprintf("%d vs %d traces", len(aT), len(bT))
	}
	for i := range aT {
		if len(aT[i]) != len(bT[i]) {
			return fmt.Sprintf("trace %d: length %d vs %d", i, len(aT[i]), len(bT[i]))
		}
		for s := range aT[i] {
			if math.Float64bits(aT[i][s]) != math.Float64bits(bT[i][s]) {
				return fmt.Sprintf("trace %d sample %d differs", i, s)
			}
		}
		if string(aA[i]) != string(bA[i]) {
			return fmt.Sprintf("trace %d aux differs", i)
		}
	}
	return ""
}

// TestStreamBatchedBitIdenticalToScalar pins the trace-set producer:
// in every synthesis mode, for every lane width (Lanes -1 included),
// worker count and chunk size and on both expansion forms, a
// phase-only generator must emit the byte-identical sequence the
// hand-written per-trace reference emits, traces in order, partial
// final batches included — and the batch path must have run exactly
// when it can.
func TestStreamBatchedBitIdenticalToScalar(t *testing.T) {
	f := newBatchFixture(0)
	const n = 107
	refT, refA := stream(t, Config{Workers: 1}, n, 5, f.streamRef(t, ModeSimulate))
	for _, mode := range []Mode{ModeAuto, ModeReplay, ModeSimulate} {
		for _, tc := range []struct{ lanes, workers, chunk int }{
			{-1, 2, 0}, {0, 2, 0}, {1, 1, 0}, {16, 2, 0}, {33, 3, 50}, {64, 2, 96}, {8, 4, 7},
		} {
			for _, fused := range []bool{false, true} {
				where := fmt.Sprintf("mode=%v lanes=%d workers=%d chunk=%d fused=%v",
					mode, tc.lanes, tc.workers, tc.chunk, fused)
				bg, synth := f.streamGen(t, mode, tc.lanes, fused)
				gotT, gotA := stream(t, Config{Workers: tc.workers, ChunkSize: tc.chunk}, n, 5, bg)
				if d := sameStream(refT, gotT, refA, gotA); d != "" {
					t.Fatalf("%s: %s", where, d)
				}
				checkBatchRan(t, where, synth, mode, tc.lanes)
			}
		}
	}
}

// TestRunBatchedValidation rejects misconfigured batch generators and
// pins Prepare errors as genuine failures on every path.
func TestRunBatchedValidation(t *testing.T) {
	f := newBatchFixture(10)
	if _, err := RunBatched(Config{}, f.spec, BatchGen{}); err == nil {
		t.Error("generator with neither a scalar generator nor phases accepted")
	}
	bg, _ := f.gen(t, ModeAuto, 0)
	bg.Acquire = nil
	if _, err := RunBatched(Config{}, f.spec, bg); err == nil {
		t.Error("phase set without an expansion accepted")
	}
	bg, _ = f.gen(t, ModeAuto, 65)
	if _, err := RunBatched(Config{}, f.spec, bg); err == nil {
		t.Error("lane width beyond MaxLanes accepted")
	}
	// A Prepare error is a genuine failure, not a fallback: the run must
	// return it rather than simulate the trace — on a batched trace (99
	// lies in the first post-window chunk), inside the verification
	// window (5), and on the derived per-trace path of Lanes -1 and
	// ModeSimulate.
	var errBoom = errors.New("boom")
	for _, tc := range []struct {
		mode       Mode
		lanes, bad int
	}{
		{ModeAuto, 8, 99}, {ModeAuto, 8, 5}, {ModeAuto, -1, 99}, {ModeSimulate, 8, 99}, {ModeReplay, 8, 0},
	} {
		f2 := newBatchFixture(160)
		bg2, synth := f2.gen(t, tc.mode, tc.lanes)
		prepare := bg2.Prepare
		bg2.Prepare = func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			if i == tc.bad {
				return errBoom
			}
			return prepare(i, rng, core, s)
		}
		_, err := RunBatched(Config{Workers: 1}, f2.spec, bg2)
		if !errors.Is(err, errBoom) {
			t.Errorf("mode=%v lanes=%d bad=%d: prepare error not propagated: %v", tc.mode, tc.lanes, tc.bad, err)
		}
		if synth.FellBack() {
			t.Errorf("mode=%v lanes=%d bad=%d: a prepare error ended replay", tc.mode, tc.lanes, tc.bad)
		}
	}
}

// TestRunBatchedSteadyStateAllocs is the allocation regression for the
// fused batch path: once the pools are warm, a steady-state chunk —
// lane-group execution, fused block expansion, batched noise and
// class accumulation — must allocate nothing. Measured as the
// allocation delta between runs differing only in chunk count, so the
// per-run fixed costs (accumulators, goroutines, chunk list) cancel.
func TestRunBatchedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	// A collection empties the sync.Pools the steady state relies on;
	// one landing inside a single measurement would count re-warming
	// them as per-chunk allocation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const chunk = DefaultChunkSize
	measure := func(extra int) float64 {
		f := newBatchFixture(VerifyRuns + extra*chunk)
		bg, _ := f.genFused(t, ModeAuto, 0)
		run := func() {
			if _, err := RunBatched(Config{Workers: 1}, f.spec, bg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the buffer pools and the synthesizer's verify window
		return testing.AllocsPerRun(3, run)
	}
	base := measure(4)
	wide := measure(24)
	if perChunk := (wide - base) / 20; perChunk > 0.5 {
		t.Errorf("fused batch path allocates %.2f per steady-state chunk (%.0f at 4 extra chunks, %.0f at 24)",
			perChunk, base, wide)
	}
}
