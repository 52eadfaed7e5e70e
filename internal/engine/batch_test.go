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

// gen builds the matched scalar generator and batch generator over a
// fresh Synthesizer of the given mode. The batch generator uses the
// per-lane Acquire form; genFused swaps in the fused block expansion.
func (f *batchFixture) gen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth, err := NewSynthesizer(mode, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	scalar := func(i int, rng *rand.Rand, s *Sample) error {
		v := rng.Uint32()
		return synth.Run(
			func(core *pipeline.Core) { f.initCore(core, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				s.Trace, s.Scratch = f.m.SynthesizeAveragedInto(s.Trace, s.Scratch, tl, rng, 2)
				f.hyps(v, s.Hyps[0])
				return nil
			})
	}
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
		Scalar: scalar,
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
// for every lane width (including one disabling the batch path, the
// single-lane degenerate batch, widths that do not divide the chunk
// size, the widths beyond the old 32-lane mask word — 33, 48 — and the
// 64-lane maximum), any worker count and chunk size, and on both the
// per-lane Acquire form and the fused block expansion, the global
// accumulators must be bit-identical.
func TestRunBatchedBitIdenticalToScalar(t *testing.T) {
	f := newBatchFixture(333)
	refGen, _ := f.gen(t, ModeAuto, -1)
	ref, err := RunBatched(Config{Workers: 1}, f.spec, refGen)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ lanes, workers, chunk int }{
		{0, 1, 0}, {1, 1, 0}, {8, 2, 0}, {16, 4, 32}, {32, 3, 48}, {24, 2, 50}, {5, 1, 7},
		{33, 2, 50}, {48, 3, 0}, {64, 2, 96}, {64, 1, 70},
	} {
		for _, fused := range []bool{false, true} {
			var bg BatchGen
			var synth *Synthesizer
			if fused {
				bg, synth = f.genFused(t, ModeAuto, tc.lanes)
			} else {
				bg, synth = f.gen(t, ModeAuto, tc.lanes)
			}
			got, err := RunBatched(Config{Workers: tc.workers, ChunkSize: tc.chunk}, f.spec, bg)
			if err != nil {
				t.Fatalf("lanes=%d workers=%d fused=%v: %v", tc.lanes, tc.workers, fused, err)
			}
			if !got[0].(*sca.CPA).Equal(ref[0].(*sca.CPA)) {
				t.Fatalf("lanes=%d workers=%d chunk=%d fused=%v: accumulator differs from scalar path",
					tc.lanes, tc.workers, tc.chunk, fused)
			}
			if synth.BatchRuns() == 0 {
				t.Fatalf("lanes=%d fused=%v: batch path never ran", tc.lanes, fused)
			}
			if reason := synth.BatchDisabledReason(); reason != "" {
				t.Fatalf("lanes=%d fused=%v: batch disabled: %s", tc.lanes, fused, reason)
			}
		}
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

func (f *divergeFixture) gen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth, err := NewSynthesizer(mode, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	initCore := func(core *pipeline.Core, i int, v uint32) {
		var r0 uint32
		if i == f.bad {
			r0 = 1 // condition fails: leaves the compiled schedule
		}
		core.SetReg(isa.R0, r0)
		core.SetReg(isa.R1, v)
		core.SetReg(isa.R8, 0x100)
	}
	scalar := func(i int, rng *rand.Rand, s *Sample) error {
		v := rng.Uint32()
		return synth.Run(
			func(core *pipeline.Core) { initCore(core, i, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				s.Trace, s.Scratch = f.m.SynthesizeAveragedInto(s.Trace, s.Scratch, tl, rng, 1)
				s.Hyps[0][0] = float64(v & 1)
				s.Hyps[0][1] = 1 - float64(v&1)
				return nil
			})
	}
	return BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			initCore(core, i, v)
			s.Hyps[0][0] = float64(v & 1)
			s.Hyps[0][1] = 1 - float64(v&1)
			return nil
		},
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace, s.Scratch = f.m.AveragedCyclesInto(s.Trace, s.Scratch, cycles, rng, 1)
			return nil
		},
		Scalar: scalar,
	}, synth
}

// TestRunBatchedDivergenceFallsBackToSimulation forces a divergence
// after the verification window: the diverging batch must be replayed
// through the scalar path (which takes the canonical simulate
// fallback), and the final accumulators must equal a pure-simulation
// run bit for bit.
func TestRunBatchedDivergenceFallsBackToSimulation(t *testing.T) {
	const traces, bad = 160, 130 // bad lands in a post-window batch
	sim := newDivergeFixture(traces, bad)
	simGen, _ := sim.gen(t, ModeSimulate, -1)
	want, err := RunBatched(Config{Workers: 1}, sim.spec, simGen)
	if err != nil {
		t.Fatal(err)
	}
	// Lane widths on both sides of the old 32-lane mask word: divergence
	// detection and fallback parity must be width-independent.
	for _, lanes := range []int{8, 48, 64} {
		f := newDivergeFixture(traces, bad)
		bg, synth := f.gen(t, ModeAuto, lanes)
		got, err := RunBatched(Config{Workers: 1}, f.spec, bg)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if synth.BatchRuns() == 0 {
			t.Fatalf("lanes=%d: batch path never ran before the divergence", lanes)
		}
		if !synth.FellBack() {
			t.Fatalf("lanes=%d: auto mode did not fall back on the diverging trace", lanes)
		}
		if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("lanes=%d: diverging run differs from pure simulation", lanes)
		}
	}
}

// streamGen is gen reshaped for StreamBatched: no banks, the drawn
// operand travels in s.Aux, Verify checks the final register against
// it, and each trace is one unaveraged expansion into the recycled
// trace storage.
func (f *batchFixture) streamGen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth, err := NewSynthesizer(mode, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(rng *rand.Rand, s *Sample) uint32 {
		v := rng.Uint32()
		s.Aux = binary.LittleEndian.AppendUint32(s.Aux[:0], v)
		return v
	}
	verify := func(i int, core *pipeline.Core, s *Sample) error {
		if got, want := core.Reg(isa.R0), binary.LittleEndian.Uint32(s.Aux)+0x5A5A5A5A; got != want {
			return fmt.Errorf("trace %d: r0 = %#x, want %#x", i, got, want)
		}
		return nil
	}
	scalar := func(i int, rng *rand.Rand, s *Sample) error {
		v := draw(rng, s)
		return synth.Run(
			func(core *pipeline.Core) { f.initCore(core, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				if err := verify(i, core, s); err != nil {
					return err
				}
				s.Trace = f.m.SynthesizeInto(s.Trace, tl, rng)
				return nil
			})
	}
	return BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			f.initCore(core, draw(rng, s))
			return nil
		},
		Verify: verify,
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace = f.m.ExpandCyclesInto(s.Trace, cycles, rng)
			return nil
		},
		Scalar: scalar,
	}, synth
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
// every lane width, worker count and chunk size must emit the
// byte-identical sequence the scalar path (Lanes -1) emits, traces in
// order, partial final batches included — and the batch path must
// really have run.
func TestStreamBatchedBitIdenticalToScalar(t *testing.T) {
	f := newBatchFixture(0)
	const n = 107
	refGen, _ := f.streamGen(t, ModeAuto, -1)
	refT, refA := stream(t, Config{Workers: 1}, n, 5, refGen)
	for _, tc := range []struct{ lanes, workers, chunk int }{
		{0, 2, 0}, {1, 1, 0}, {16, 2, 0}, {33, 3, 50}, {64, 2, 96}, {8, 4, 7},
	} {
		bg, synth := f.streamGen(t, ModeAuto, tc.lanes)
		gotT, gotA := stream(t, Config{Workers: tc.workers, ChunkSize: tc.chunk}, n, 5, bg)
		if d := sameStream(refT, gotT, refA, gotA); d != "" {
			t.Fatalf("lanes=%d workers=%d chunk=%d: %s", tc.lanes, tc.workers, tc.chunk, d)
		}
		if synth.BatchRuns() == 0 {
			t.Fatalf("lanes=%d workers=%d chunk=%d: batch path never ran", tc.lanes, tc.workers, tc.chunk)
		}
	}
}

// TestRunBatchedValidation rejects misconfigured batch generators.
func TestRunBatchedValidation(t *testing.T) {
	f := newBatchFixture(10)
	if _, err := RunBatched(Config{}, f.spec, BatchGen{}); err == nil {
		t.Error("missing scalar generator accepted")
	}
	bg, _ := f.gen(t, ModeAuto, 65)
	if _, err := RunBatched(Config{}, f.spec, bg); err == nil {
		t.Error("lane width beyond MaxLanes accepted")
	}
	// A Prepare error on a batched trace (99 lies in the first
	// post-window chunk) is a genuine failure, not a fallback.
	var errBoom = errors.New("boom")
	f2 := newBatchFixture(160)
	bg2, _ := f2.gen(t, ModeAuto, 8)
	prepare := bg2.Prepare
	bg2.Prepare = func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
		if i == 99 {
			return errBoom
		}
		return prepare(i, rng, core, s)
	}
	if _, err := RunBatched(Config{Workers: 1}, f2.spec, bg2); !errors.Is(err, errBoom) {
		t.Errorf("prepare error not propagated: %v", err)
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
