package attack

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sca"
	"repro/internal/target"
)

// TestFig3UsesReplay pins the auto-mode contract on the AES target: the
// replay program compiles, survives its verification window, and the
// attack still recovers the key — i.e. the hot path really is replay.
func TestFig3UsesReplay(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Traces = 400
	opt.Rounds = 1
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	res, err := RunCPA(target.Default, key[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Fatalf("auto mode fell back to simulation: %s", res.FallbackReason)
	}
	if !res.Success() {
		t.Fatalf("key byte not recovered under replay: rank %d", res.Rank)
	}
}

// TestFig3ReplayBitIdenticalToSimulate is the figure-level equivalence
// assertion: the full attack result under compiled replay equals the
// full-simulation result bit for bit.
func TestFig3ReplayBitIdenticalToSimulate(t *testing.T) {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	run := func(mode engine.Mode) *Fig3Result {
		opt := DefaultFig3Options()
		opt.Traces = 300
		opt.Rounds = 1
		opt.Synth = mode
		res, err := RunCPA(target.Default, key[:], opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rep, sim := run(engine.ModeReplay), run(engine.ModeSimulate)
	if rep.Recovered != sim.Recovered || rep.Rank != sim.Rank || rep.Confidence != sim.Confidence {
		t.Fatalf("replay result differs: %+v vs %+v", rep, sim)
	}
	for i := range sim.CorrTrace {
		if rep.CorrTrace[i] != sim.CorrTrace[i] {
			t.Fatalf("correlation trace differs at sample %d: %v vs %v", i, rep.CorrTrace[i], sim.CorrTrace[i])
		}
	}
}

// fig3Bank runs the acquisition half of RunCPA on the AES target and
// returns the attacked byte's accumulator together with the setup whose
// synthesizer produced it.
func fig3Bank(t *testing.T, key [16]byte, opt Fig3Options) (*cpaSetup, *sca.ClassCPA) {
	t.Helper()
	s, err := newCPASetup(target.Default, key[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	banks, err := s.acquire(opt, []int{opt.KeyByte}, engine.Spec{Traces: opt.Traces})
	if err != nil {
		t.Fatal(err)
	}
	return s, banks[0].(*sca.ClassCPA)
}

// TestFig3AutoEqualsSimulateAcrossAblations sweeps every combination
// of the six modelling toggles through a small Figure 3 attack and
// asserts that auto-mode synthesis — lane-parallel batched replay where
// the schedule allows, verified fallback where it does not (e.g. the
// NopZeroesWB ablation pins the cipher's data-dependent conditionals) —
// is bit-identical to pure simulation at every supported lane width,
// including the scalar per-trace path (-1) and the single-lane
// degenerate batch. The trace count leaves an odd tail past the
// verification window, so whole, partial and single-trace final batches
// are all covered.
//
// The comparison is on accumulator state: a Fig3Result's ranking,
// confidence, correlation trace and region peaks are a pure function of
// the bank and the calibration, which is mode-independent, so
// bit-identical banks imply bit-identical results. One result per
// ablation is derived from the simulation reference, pinning that the
// reference really is the independent full-simulation path.
func TestFig3AutoEqualsSimulateAcrossAblations(t *testing.T) {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	for mask := 0; mask < 64; mask++ {
		opt := DefaultFig3Options()
		opt.Traces = 117
		opt.Rounds = 1
		opt.Averages = 1
		opt.Core.DualIssue = mask&1 != 0
		opt.Core.StructuralPolicyOnly = mask&2 != 0
		opt.Core.AlignedPairs = mask&4 != 0
		opt.Core.NopZeroesWB = mask&8 != 0
		opt.Core.AlignBuffer = mask&16 != 0
		opt.Core.StoreLaneReplication = mask&32 != 0

		opt.Synth = engine.ModeSimulate
		simSetup, sim := fig3Bank(t, key, opt)
		if res := simSetup.fig3Result(opt, sim); res.Replayed || res.Batched || len(res.CorrTrace) != simSetup.nSamples {
			t.Fatalf("cfg %#x: simulation reference replayed=%v batched=%v with %d of %d samples",
				mask, res.Replayed, res.Batched, len(res.CorrTrace), simSetup.nSamples)
		}
		for _, lanes := range []int{-1, 1, 8, 16, 32, 64} {
			opt.Synth = engine.ModeAuto
			opt.Lanes = lanes
			s, auto := fig3Bank(t, key, opt)
			if !auto.Equal(sim) {
				t.Fatalf("cfg %#x lanes %d: auto accumulator differs from simulation (fallback=%v %q)",
					mask, lanes, s.synth.FellBack(), s.synth.FallbackReason())
			}
			if lanes >= 0 && !s.synth.FellBack() && s.synth.BatchRuns() == 0 {
				t.Fatalf("cfg %#x lanes %d: replay live but batch path never ran", mask, lanes)
			}
		}
	}
}

// TestFig4ReplayBitIdenticalToSimulate covers the loaded-Linux figure:
// replay and simulation agree bit for bit through the osnoise chain.
func TestFig4ReplayBitIdenticalToSimulate(t *testing.T) {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	run := func(mode engine.Mode) *Fig4Result {
		opt := DefaultFig4Options()
		opt.Synth = mode
		res, err := RunFigure4(key, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rep, sim := run(engine.ModeReplay), run(engine.ModeSimulate)
	if rep.Recovered != sim.Recovered || rep.Rank != sim.Rank ||
		rep.BestCorr != sim.BestCorr || rep.Confidence != sim.Confidence {
		t.Fatalf("replay result differs from simulation")
	}
	for i := range sim.CorrTrace {
		if rep.CorrTrace[i] != sim.CorrTrace[i] {
			t.Fatalf("correlation trace differs at sample %d", i)
		}
	}
}
