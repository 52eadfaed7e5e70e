package attack

import (
	"math"
	"testing"

	"repro/internal/target"
)

// TestFigure3WorkerCountInvariance pins the engine's determinism
// contract at the attack level: the full paper-figure output — recovered
// byte, rank, confidence and the entire correlation curve — is
// bit-identical whether one worker or many synthesized the traces.
func TestFigure3WorkerCountInvariance(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Traces = 200
	opt.Rounds = 1
	opt.Workers = 1
	ref, err := RunCPA(target.Default, testKey[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opt.Workers = workers
		got, err := RunCPA(target.Default, testKey[:], opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Recovered != ref.Recovered || got.Rank != ref.Rank {
			t.Fatalf("workers=%d: recovered %#02x rank %d, want %#02x rank %d",
				workers, got.Recovered, got.Rank, ref.Recovered, ref.Rank)
		}
		if math.Float64bits(got.Confidence) != math.Float64bits(ref.Confidence) {
			t.Fatalf("workers=%d: confidence %v differs from %v", workers, got.Confidence, ref.Confidence)
		}
		for i := range ref.CorrTrace {
			if math.Float64bits(got.CorrTrace[i]) != math.Float64bits(ref.CorrTrace[i]) {
				t.Fatalf("workers=%d: correlation curve differs at sample %d", workers, i)
			}
		}
	}
}

// TestFigure4WorkerCountInvariance does the same under the loaded-Linux
// environment, whose preemption and jitter draws also ride the per-trace
// streams.
func TestFigure4WorkerCountInvariance(t *testing.T) {
	opt := DefaultFig4Options()
	opt.Traces = 40
	opt.Workers = 1
	ref, err := RunFigure4(testKey, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	got, err := RunFigure4(testKey, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovered != ref.Recovered || got.Rank != ref.Rank ||
		math.Float64bits(got.BestCorr) != math.Float64bits(ref.BestCorr) {
		t.Fatalf("workers=4 result diverged: %+v vs %+v", got, ref)
	}
	for i := range ref.CorrTrace {
		if math.Float64bits(got.CorrTrace[i]) != math.Float64bits(ref.CorrTrace[i]) {
			t.Fatalf("correlation curve differs at sample %d", i)
		}
	}
}

// TestRankEvolutionSingleStream verifies that checkpointed rank curves
// come from one shared trace stream: the final rank must match a direct
// attack over the same trace count.
func TestRankEvolutionSingleStream(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Rounds = 1
	curve, err := RankEvolutionFor(target.Default, testKey[:], opt, []int{50, 200})
	if err != nil {
		t.Fatal(err)
	}
	opt.Traces = 200
	res, err := RunCPA(target.Default, testKey[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := curve.Ranks[len(curve.Ranks)-1]; got != res.Rank {
		t.Fatalf("rank at 200 traces: curve %d vs direct attack %d", got, res.Rank)
	}
}
