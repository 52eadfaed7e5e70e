package attack

import (
	"testing"

	"repro/internal/target"
)

func TestRecoverKeyFullAES(t *testing.T) {
	if testing.Short() {
		t.Skip("full-key recovery is slow")
	}
	opt := DefaultFig3Options()
	opt.Traces = 700
	opt.Rounds = 1
	res, err := RecoverKey(target.Default, testKey[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Key) != len(testKey) {
		t.Fatalf("attacked %d bytes, want the %d-byte AES key", len(res.Key), len(testKey))
	}
	if !res.Success() {
		t.Fatalf("recovered %d/16 bytes: %x vs %x (GE %.2f)",
			res.BytesRecovered(), res.Recovered, res.Key, res.GuessingEntropy())
	}
	if res.GuessingEntropy() != 0 {
		t.Errorf("guessing entropy %v, want 0", res.GuessingEntropy())
	}
}

func TestRecoverKeyValidation(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Traces = 2
	if _, err := RecoverKey(target.Default, testKey[:], opt); err == nil {
		t.Error("too few traces must be rejected")
	}
}

func TestRankEvolutionConverges(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Rounds = 1
	curve, err := RankEvolutionFor(target.Default, testKey[:], opt, []int{25, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Ranks) != 3 {
		t.Fatalf("curve has %d points", len(curve.Ranks))
	}
	last := curve.Ranks[len(curve.Ranks)-1]
	if last != 0 {
		t.Errorf("rank at 400 traces = %d, want 0", last)
	}
	if curve.Ranks[0] < 0 {
		t.Error("negative rank")
	}
	if fs := curve.FirstSuccess(); fs <= 0 || fs > 400 {
		t.Errorf("FirstSuccess = %d", fs)
	}
}

// TestRankEvolutionValidation holds the rank curve to the trace floor
// every other attack entry point enforces: no checkpoint may fall below
// 8 traces, whatever order the counts come in.
func TestRankEvolutionValidation(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Rounds = 1
	for _, tc := range []struct {
		name    string
		keyByte int
		counts  []int
		want    string
	}{
		{"no counts", 0, nil, "attack: no trace counts"},
		{"counts below 8", 0, []int{1, 2, 3}, "attack: need at least 8 traces, got 1"},
		{"one count below 8", 0, []int{400, 7, 25}, "attack: need at least 8 traces, got 7"},
		{"key byte out of range", 16, []int{25}, "attack: aes key byte must be in [0,16), got 16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt.KeyByte = tc.keyByte
			curve, err := RankEvolutionFor(target.Default, testKey[:], opt, tc.counts)
			if err == nil {
				t.Fatalf("counts %v, key byte %d accepted: ranks %v", tc.counts, tc.keyByte, curve.Ranks)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}
