package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sca"
)

// withProcs runs fn at each GOMAXPROCS value, restoring the original.
func withProcs(t *testing.T, procs []int, fn func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

// wantBatchRuns is the lane-batch count the determinism contract fixes
// for a fresh auto-mode Synthesizer: the chunks past the verification
// window each run ceil(len/lanes) batches, the window runs none.
func wantBatchRuns(traces, chunk, lanes int) int64 {
	var n int64
	for _, c := range chunks(traces, chunk, []int{VerifyRuns}) {
		if c.start >= VerifyRuns {
			n += int64((c.end - c.start + lanes - 1) / lanes)
		}
	}
	return n
}

// TestPathChoiceIndependentOfScheduling pins the determinism contract's
// path clause: which traces take the verification run, scalar replay or
// a lane batch depends only on (program, Traces, Lanes, ChunkSize) and
// the Synthesizer's prior runs. For RunBatched and StreamBatched, at
// every worker count and GOMAXPROCS value, the lane-batch count and the
// accumulator or emitted bits must equal the single-worker run's — for
// chunk sizes equal to, below and not dividing VerifyRuns, and trace
// counts below, at and above the window.
func TestPathChoiceIndependentOfScheduling(t *testing.T) {
	const lanes = 16
	for _, traces := range []int{VerifyRuns - 13, VerifyRuns, 3*VerifyRuns + 29} {
		for _, chunk := range []int{64, 16, 50} {
			f := newBatchFixture(traces)
			want := wantBatchRuns(traces, chunk, lanes)

			refGen, refSynth := f.gen(t, ModeAuto, lanes)
			ref, err := RunBatched(Config{Workers: 1, ChunkSize: chunk}, f.spec, refGen)
			if err != nil {
				t.Fatal(err)
			}
			refStreamGen, refStreamSynth := f.streamGen(t, ModeAuto, lanes, false)
			refT, refA := stream(t, Config{Workers: 1, ChunkSize: chunk}, traces, f.spec.Seed, refStreamGen)
			for _, got := range []int64{refSynth.BatchRuns(), refStreamSynth.BatchRuns()} {
				if got != want {
					t.Fatalf("traces=%d chunk=%d workers=1: %d lane batches, want %d", traces, chunk, got, want)
				}
			}

			withProcs(t, []int{1, 2, 4}, func(procs int) {
				for _, workers := range []int{1, 2, 4} {
					where := fmt.Sprintf("traces=%d chunk=%d GOMAXPROCS=%d workers=%d", traces, chunk, procs, workers)
					cfg := Config{Workers: workers, ChunkSize: chunk}

					bg, synth := f.gen(t, ModeAuto, lanes)
					got, err := RunBatched(cfg, f.spec, bg)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !got[0].(*sca.CPA).Equal(ref[0].(*sca.CPA)) {
						t.Fatalf("%s: RunBatched accumulator differs from the single-worker run", where)
					}
					if synth.BatchRuns() != want {
						t.Fatalf("%s: RunBatched ran %d lane batches, want %d", where, synth.BatchRuns(), want)
					}

					sg, ssynth := f.streamGen(t, ModeAuto, lanes, false)
					gotT, gotA := stream(t, cfg, traces, f.spec.Seed, sg)
					if d := sameStream(refT, gotT, refA, gotA); d != "" {
						t.Fatalf("%s: StreamBatched: %s", where, d)
					}
					if ssynth.BatchRuns() != want {
						t.Fatalf("%s: StreamBatched ran %d lane batches, want %d", where, ssynth.BatchRuns(), want)
					}
				}
			})
		}
	}
}

// TestVerifyWindowMismatchNeverBatches pins the barrier's failure leg:
// a trace inside the verification window that leaves the compiled
// schedule ends replay for the whole run, at every worker count,
// GOMAXPROCS value and chunk size — the accumulators equal pure
// simulation bit for bit and no lane batch ever runs.
func TestVerifyWindowMismatchNeverBatches(t *testing.T) {
	const traces, bad = 160, 5
	sim := newDivergeFixture(traces, bad)
	want, err := Run(Config{Workers: 1}, sim.spec, sim.ref(t, ModeSimulate))
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, []int{1, 2, 4}, func(procs int) {
		for _, chunk := range []int{64, 16, 50} {
			for _, workers := range []int{1, 2, 4} {
				where := fmt.Sprintf("GOMAXPROCS=%d chunk=%d workers=%d", procs, chunk, workers)
				f := newDivergeFixture(traces, bad)
				bg, synth := f.gen(t, ModeAuto, 16)
				got, err := RunBatched(Config{Workers: workers, ChunkSize: chunk}, f.spec, bg)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !synth.FellBack() {
					t.Fatalf("%s: the in-window mismatch did not end replay", where)
				}
				if synth.BatchRuns() != 0 {
					t.Fatalf("%s: %d lane batches ran after a verification mismatch", where, synth.BatchRuns())
				}
				if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
					t.Fatalf("%s: accumulator differs from pure simulation", where)
				}
			}
		}
	})
}
