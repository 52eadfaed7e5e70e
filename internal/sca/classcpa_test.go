package sca

import (
	"math"
	"math/rand"
	"testing"
)

// hwTable builds the Figure-3-shaped hypothesis table: class p (a
// plaintext byte) predicts HW(p^k) for hypothesis k — a small-alphabet
// 256x256 table like the real SubBytes one.
func hwTable() [][]float64 {
	t := make([][]float64, 256)
	for p := range t {
		t[p] = make([]float64, 256)
		for k := range t[p] {
			t[p][k] = float64(HW8(byte(p) ^ byte(k)))
		}
	}
	return t
}

// TestClassCPAMatchesCPA checks the conditional-sum algebra against the
// direct accumulator: same traces, same model, correlations equal up to
// floating-point reassociation (different but equivalent summation
// orders), and identical rankings on a strongly leaking signal.
func TestClassCPAMatchesCPA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := hwTable()
	const samples, traces = 40, 600
	cc := MustNewClassCPA(samples, table)
	cpa := MustNewCPA(256, samples)
	const trueKey = 0x3C
	for i := 0; i < traces; i++ {
		p := rng.Intn(256)
		tr := make([]float64, samples)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[7] += 2 * table[p][trueKey] // leak hypothesis trueKey at sample 7
		if err := cc.Add(p, tr); err != nil {
			t.Fatal(err)
		}
		if err := cpa.Add(tr, table[p]); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 256; k += 17 {
		for s := 0; s < samples; s++ {
			a, b := cc.Corr(k, s), cpa.Corr(k, s)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("corr(%d,%d): class %v vs direct %v", k, s, a, b)
			}
		}
	}
	ra, rb := cc.Result(), cpa.Result()
	// HW(p^k) is linear in k, so k and its complement are perfectly
	// anti-correlated: both are valid winners of the |peak| ranking.
	if ra.Ranking[0] != rb.Ranking[0] {
		t.Fatalf("rankings disagree: class %#02x vs direct %#02x", ra.Ranking[0], rb.Ranking[0])
	}
	if got := ra.Ranking[0]; got != trueKey && got != trueKey^0xFF {
		t.Fatalf("top hypothesis %#02x, want %#02x or its complement", got, trueKey)
	}
}

// TestClassCPAAddBatchBitIdenticalToAdd pins the batch form to the
// serial reference.
func TestClassCPAAddBatchBitIdenticalToAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	table := hwTable()
	const samples, traces = 23, 77
	classes := make([]int, traces)
	trs := make([][]float64, traces)
	for i := range trs {
		classes[i] = rng.Intn(256)
		trs[i] = make([]float64, samples)
		for s := range trs[i] {
			trs[i][s] = rng.NormFloat64()
		}
	}
	a := MustNewClassCPA(samples, table)
	for i := range trs {
		if err := a.Add(classes[i], trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	b := MustNewClassCPA(samples, table)
	if err := b.AddBatch(classes[:30], trs[:30]); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBatch(classes[30:], trs[30:]); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("AddBatch diverges from serial Add")
	}
	// Derived statistics are a pure function of the state.
	for k := 0; k < 256; k += 31 {
		for s := 0; s < samples; s++ {
			if math.Float64bits(a.Corr(k, s)) != math.Float64bits(b.Corr(k, s)) {
				t.Fatalf("derived corr(%d,%d) differs between equal states", k, s)
			}
		}
	}
}

// TestClassCPAValidation rejects bad tables, classes and lengths.
func TestClassCPAValidation(t *testing.T) {
	if _, err := NewClassCPA(0, hwTable()); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := NewClassCPA(4, nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewClassCPA(4, [][]float64{{1}}); err == nil {
		t.Error("single-hypothesis table accepted")
	}
	if _, err := NewClassCPA(4, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table accepted")
	}
	c := MustNewClassCPA(4, [][]float64{{1, 2}, {3, 4}})
	if err := c.Add(2, make([]float64, 4)); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := c.Add(0, make([]float64, 3)); err == nil {
		t.Error("short trace accepted")
	}
	if err := c.AddBatch([]int{0}, [][]float64{make([]float64, 4), make([]float64, 4)}); err == nil {
		t.Error("mismatched batch accepted")
	}
	if c.Count() != 0 {
		t.Errorf("failed adds accumulated %d traces", c.Count())
	}
}

// TestClassCPACloneEqual covers the state-management helpers: a clone
// equals its original, and diverges from it without sharing state.
func TestClassCPACloneEqual(t *testing.T) {
	c := MustNewClassCPA(3, [][]float64{{0, 1}, {1, 0}})
	if err := c.Add(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone differs from original")
	}
	if err := d.Add(0, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if c.Equal(d) {
		t.Fatal("clone shares state with original")
	}
	if c.Count() != 1 {
		t.Fatalf("original holds %d traces after its clone grew, want 1", c.Count())
	}
}

// TestVaddFallbackBitIdentical forces the portable element-wise add and
// compares against the vector kernel.
func TestVaddFallbackBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	saved := hasAVX512
	defer func() { hasAVX512 = saved }()
	for n := 0; n < 70; n++ {
		x := make([]float64, n)
		d0 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			d0[i] = rng.NormFloat64()
		}
		hasAVX512 = saved
		d1 := append([]float64(nil), d0...)
		vaddInto(d1, x)
		hasAVX512 = false
		d2 := append([]float64(nil), d0...)
		vaddInto(d2, x)
		for i := range d1 {
			if math.Float64bits(d1[i]) != math.Float64bits(d2[i]) {
				t.Fatalf("n=%d i=%d: %x vs %x", n, i, d1[i], d2[i])
			}
		}
	}
}

// TestClassAddFallbackBitIdentical pins the fused class-accumulation
// kernel three ways: vector vs portable, and fused vs the unfused
// sumSq + vadd sweeps it replaced.
func TestClassAddFallbackBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	saved := hasAVX512
	defer func() { hasAVX512 = saved }()
	for n := 0; n < 70; n++ {
		x := make([]float64, n)
		st0 := make([]float64, n)
		stt0 := make([]float64, n)
		cls0 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			st0[i] = rng.NormFloat64()
			stt0[i] = rng.NormFloat64()
			cls0[i] = rng.NormFloat64()
		}
		run := func(vec bool, fused bool) (st, stt, cls []float64) {
			hasAVX512 = vec && saved
			st = append([]float64(nil), st0...)
			stt = append([]float64(nil), stt0...)
			cls = append([]float64(nil), cls0...)
			if fused {
				classAddInto(st, stt, cls, x)
			} else {
				sumSqInto(st, stt, x)
				vaddInto(cls, x)
			}
			return
		}
		wantT, wantTT, wantC := run(false, false)
		for _, mode := range []struct{ vec, fused bool }{{true, true}, {false, true}, {true, false}} {
			gotT, gotTT, gotC := run(mode.vec, mode.fused)
			for i := 0; i < n; i++ {
				if math.Float64bits(gotT[i]) != math.Float64bits(wantT[i]) ||
					math.Float64bits(gotTT[i]) != math.Float64bits(wantTT[i]) ||
					math.Float64bits(gotC[i]) != math.Float64bits(wantC[i]) {
					t.Fatalf("n=%d i=%d vec=%v fused=%v: mismatch", n, i, mode.vec, mode.fused)
				}
			}
		}
	}
}
