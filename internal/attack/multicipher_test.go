package attack

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/target"
)

// multiOpts is the shared acquisition point of the cross-target tests:
// small enough to keep the suite fast, large enough that every cipher's
// class-table CPA separates the true key at the fixed seed.
func multiOpts(traces int) Fig3Options {
	opt := DefaultFig3Options()
	opt.Traces = traces
	opt.Averages = 1
	opt.Rounds = 0 // filled per target below
	opt.Seed = 11
	return opt
}

// TestRunCPAAcrossTargets attacks byte 0 of every registered cipher
// with its own leakage model and requires the true key byte to win
// outright — the known-key correlation peak the registry contract
// promises for ClassCPA models.
func TestRunCPAAcrossTargets(t *testing.T) {
	for _, name := range target.Names() {
		tgt, err := target.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		info := tgt.Info()
		opt := multiOpts(400)
		opt.Rounds = info.DefaultRounds
		res, err := RunCPA(name, info.DefaultKey, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Target != name {
			t.Errorf("%s: result names target %q", name, res.Target)
		}
		if res.TrueKey != tgt.Info().DefaultKey[0] && name != "speck64" && name != "chacha20" {
			// AES and PRESENT attack the round key directly derived from
			// byte 0 of the cipher key; the ARX targets attack derived
			// round-key bytes, checked by their own TrueKeyBytes tests.
			t.Errorf("%s: true key byte %#02x", name, res.TrueKey)
		}
		if res.Rank != 0 {
			t.Errorf("%s: true key rank %d, want 0 (recovered %#02x, true %#02x)",
				name, res.Rank, res.Recovered, res.TrueKey)
		}
		if len(res.Regions) == 0 {
			t.Errorf("%s: no annotated regions", name)
		}
	}
}

// TestRecoverKeyAcrossTargets recovers every attacked byte of each
// non-AES target from one shared trace stream.
func TestRecoverKeyAcrossTargets(t *testing.T) {
	for _, name := range []string{"present", "speck64", "chacha20"} {
		tgt, err := target.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		info := tgt.Info()
		traces := 400
		if name == "chacha20" {
			// The store-transition leak shares its cycle with the adjacent
			// column's dataflow, so chacha needs more traces to separate
			// every byte.
			traces = 3200
		}
		opt := multiOpts(traces)
		opt.Rounds = info.DefaultRounds
		rec, err := RecoverKey(name, info.DefaultKey, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rec.Ranks) != info.AttackBytes {
			t.Fatalf("%s: %d ranks, want %d", name, len(rec.Ranks), info.AttackBytes)
		}
		if !rec.Success() {
			t.Errorf("%s: recovered %x ranks %v, want full recovery of %x",
				name, rec.Recovered, rec.Ranks, rec.Key)
		}
	}
}

// TestRunCPADeterministicAcrossScheduling reruns a non-AES attack under
// different worker and lane counts and requires identical outcomes —
// the determinism contract extended to the new targets.
func TestRunCPADeterministicAcrossScheduling(t *testing.T) {
	info, _ := target.Get("speck64")
	opt := multiOpts(200)
	opt.Rounds = info.Info().DefaultRounds
	opt.Workers = 1
	a, err := RunCPA("speck64", info.Info().DefaultKey, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers, opt.Lanes = 3, 8
	b, err := RunCPA("speck64", info.Info().DefaultKey, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rank != b.Rank || a.Recovered != b.Recovered || a.Confidence != b.Confidence {
		t.Fatalf("scheduling changed the result: %+v vs %+v", a, b)
	}
	for i := range a.CorrTrace {
		if a.CorrTrace[i] != b.CorrTrace[i] {
			t.Fatalf("correlation trace differs at sample %d", i)
		}
	}
}

// TestRunCPADerivedPathMatchesBatch pins the one trace definition of
// the cross-target attack: with every trace synthesized one at a time
// from the phases (Lanes -1, or pure simulation) each cipher's result
// is bit-identical to the lane-batched default.
func TestRunCPADerivedPathMatchesBatch(t *testing.T) {
	for _, name := range target.Names() {
		tgt, err := target.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		info := tgt.Info()
		opt := multiOpts(150)
		opt.Rounds = info.DefaultRounds
		opt.Workers = 2
		want, err := RunCPA(name, info.DefaultKey, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !want.Batched {
			t.Fatalf("%s: the default run never took the batch path", name)
		}
		for _, c := range []struct {
			lanes int
			synth engine.Mode
		}{{-1, engine.ModeAuto}, {-1, engine.ModeReplay}, {8, engine.ModeSimulate}} {
			o := opt
			o.Lanes, o.Synth = c.lanes, c.synth
			got, err := RunCPA(name, info.DefaultKey, o)
			if err != nil {
				t.Fatalf("%s lanes=%d mode=%v: %v", name, c.lanes, c.synth, err)
			}
			if got.Batched {
				t.Fatalf("%s lanes=%d mode=%v: batch path ran", name, c.lanes, c.synth)
			}
			if got.Rank != want.Rank || got.Recovered != want.Recovered ||
				math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
				t.Fatalf("%s lanes=%d mode=%v: recovered %#02x rank %d confidence %v, want %#02x rank %d confidence %v",
					name, c.lanes, c.synth, got.Recovered, got.Rank, got.Confidence,
					want.Recovered, want.Rank, want.Confidence)
			}
			for i := range want.CorrTrace {
				if math.Float64bits(got.CorrTrace[i]) != math.Float64bits(want.CorrTrace[i]) {
					t.Fatalf("%s lanes=%d mode=%v: correlation trace differs at sample %d",
						name, c.lanes, c.synth, i)
				}
			}
		}
	}
}
