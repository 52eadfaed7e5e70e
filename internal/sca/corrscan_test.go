package sca

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refCorrMatrix is the reference for ClassCPA's read side: the formula
// the accumulator evaluated before the derive-and-scan, written out
// plainly. For each hypothesis it sweeps the non-empty classes in
// ascending index from +0 to form Σh, Σh² and the Σh·t row, then
// applies the Pearson formula to every element. It returns the full
// hypotheses × samples correlation matrix.
func refCorrMatrix(c *ClassCPA) [][]float64 {
	out := make([][]float64, c.nHyp)
	for k := range out {
		out[k] = make([]float64, c.samples)
	}
	if c.count < 2 {
		return out
	}
	n := float64(c.count)
	for k := 0; k < c.nHyp; k++ {
		var sumH, sumHH float64
		sumHT := make([]float64, c.samples)
		for p := 0; p < c.classes; p++ {
			if c.classN[p] == 0 {
				continue
			}
			np := float64(c.classN[p])
			h := c.table[p*c.nHyp+k]
			sumH += np * h
			sumHH += np * (h * h)
			for s := range sumHT {
				sumHT[s] += h * c.classSum[p*c.samples+s]
			}
		}
		for s := range sumHT {
			num := n*sumHT[s] - sumH*c.sumT[s]
			dh := n*sumHH - sumH*sumH
			dt := n*c.sumTT[s] - c.sumT[s]*c.sumT[s]
			den := math.Sqrt(dh) * math.Sqrt(dt)
			if den == 0 || math.IsNaN(den) {
				continue
			}
			out[k][s] = num / den
		}
	}
	return out
}

// refPeak is the reference Peak: the first sample of maximal |r|,
// starting from (0, sample 0).
func refPeak(row []float64) (float64, int) {
	best, idx := 0.0, 0
	for s, r := range row {
		if math.Abs(r) > math.Abs(best) {
			best, idx = r, s
		}
	}
	return best, idx
}

// refPeakIn is the reference PeakIn, clamping included.
func refPeakIn(row []float64, lo, hi int, signed bool) (float64, int) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo || hi > len(row) {
		hi = len(row)
	}
	best, idx, have := 0.0, lo, false
	for s := lo; s < hi; s++ {
		r := row[s]
		better := math.Abs(r) > math.Abs(best)
		if signed {
			better = r > best
		}
		if !have || better {
			best, idx, have = r, s, true
		}
	}
	return best, idx
}

// refAttack ranks reference peaks with the reference insertion sort.
func refAttack(m [][]float64, traces int, signed bool, peak func(row []float64) (float64, int)) *Attack {
	a := &Attack{
		Peaks:       make([]float64, len(m)),
		PeakSamples: make([]int, len(m)),
		Ranking:     make([]int, len(m)),
		Traces:      traces,
	}
	for k, row := range m {
		a.Peaks[k], a.PeakSamples[k] = peak(row)
		a.Ranking[k] = k
	}
	key := func(r float64) float64 {
		if signed {
			return r
		}
		return math.Abs(r)
	}
	for i := 1; i < len(a.Ranking); i++ {
		for j := i; j > 0; j-- {
			x, y := a.Ranking[j-1], a.Ranking[j]
			if key(a.Peaks[y]) > key(a.Peaks[x]) {
				a.Ranking[j-1], a.Ranking[j] = y, x
			} else {
				break
			}
		}
	}
	return a
}

// sameAttack reports the first difference between two summaries, bit
// for bit, or "".
func sameAttack(got, want *Attack) string {
	if got.Traces != want.Traces || len(got.Peaks) != len(want.Peaks) {
		return fmt.Sprintf("shape: %d traces × %d peaks, want %d × %d", got.Traces, len(got.Peaks), want.Traces, len(want.Peaks))
	}
	for k := range want.Peaks {
		if math.Float64bits(got.Peaks[k]) != math.Float64bits(want.Peaks[k]) {
			return fmt.Sprintf("peak %d: %x, want %x", k, math.Float64bits(got.Peaks[k]), math.Float64bits(want.Peaks[k]))
		}
		if got.PeakSamples[k] != want.PeakSamples[k] {
			return fmt.Sprintf("peak sample %d: %d, want %d", k, got.PeakSamples[k], want.PeakSamples[k])
		}
		if got.Ranking[k] != want.Ranking[k] {
			return fmt.Sprintf("ranking[%d]: %d, want %d", k, got.Ranking[k], want.Ranking[k])
		}
	}
	return ""
}

// scanCase is one accumulator shape of the bit-identity sweep.
type scanCase struct {
	classes, used, hyps, samples, traces int
	// period > 0 repeats every trace with that period, so equal
	// correlations recur across strips and core splits.
	period int
	// poison sets two non-empty class sums to +Inf and −Inf at the first
	// two samples of every strip, making every correlation there NaN while
	// the denominators stay finite.
	poison bool
}

// build fills a bank for the case: classes drawn from the first used
// classes only (the rest stay empty), a leak on hypothesis 1 at sample
// 2, a zero-variance sample 3 (every trace holds 2 there) and a
// zero-variance last hypothesis (one prediction for every class).
func (sc scanCase) build(rng *rand.Rand) *ClassCPA {
	table := make([][]float64, sc.classes)
	for p := range table {
		table[p] = make([]float64, sc.hyps)
		for k := range table[p] {
			table[p][k] = float64(HW8(byte(p)^byte(k*37))) + 0.25*float64(k%3)
		}
		table[p][sc.hyps-1] = 3
	}
	c := MustNewClassCPA(sc.samples, table)
	tr := make([]float64, sc.samples)
	for i := 0; i < sc.traces; i++ {
		p := rng.Intn(sc.used)
		for s := range tr {
			if sc.period > 0 && s >= sc.period {
				tr[s] = tr[s-sc.period]
				continue
			}
			tr[s] = rng.NormFloat64()
		}
		tr[min(3, sc.samples-1)] = 2
		if sc.samples > 2 {
			tr[2] += table[p][min(1, sc.hyps-1)]
		}
		if err := c.Add(p, tr); err != nil {
			panic(err)
		}
	}
	if sc.poison {
		var used []int
		for p, n := range c.classN {
			if n > 0 {
				used = append(used, p)
			}
		}
		for s := 0; s < sc.samples; s++ {
			if s%stripLen < 2 {
				c.classSum[used[0]*c.samples+s] = math.Inf(1)
				c.classSum[used[1]*c.samples+s] = math.Inf(-1)
			}
		}
	}
	return c
}

// scanCases spans the kernel's edges: hypothesis counts below, at and
// above a block multiple (2, 5, 256), sample counts around the strip
// width, one class, empty classes, fewer than two traces, NaN
// correlations, and shapes large enough to split across cores.
var scanCases = []scanCase{
	{classes: 1, used: 1, hyps: 2, samples: 5, traces: 9},
	{classes: 4, used: 3, hyps: 5, samples: 17, traces: 40},
	{classes: 16, used: 16, hyps: 2, samples: 1, traces: 30},
	{classes: 40, used: 25, hyps: 5, samples: 33, traces: 200},
	{classes: 256, used: 256, hyps: 256, samples: 16, traces: 0},
	{classes: 256, used: 256, hyps: 256, samples: 15, traces: 1},
	{classes: 256, used: 256, hyps: 256, samples: 31, traces: 2},
	{classes: 256, used: 200, hyps: 256, samples: 37, traces: 600},
	{classes: 256, used: 256, hyps: 256, samples: 101, traces: 500, period: 19},
	{classes: 256, used: 256, hyps: 256, samples: 70, traces: 300, poison: true},
}

// simdLegs runs f under each kernel leg this CPU has — AVX-512, AVX
// without AVX-512, and the portable reference — restoring the gates.
func simdLegs(t *testing.T, f func(t *testing.T)) {
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	legs := []struct {
		name        string
		avx, avx512 bool
	}{
		{"native", savedAVX, saved512},
		{"avx", savedAVX, false},
		{"portable", false, false},
	}
	for _, leg := range legs {
		hasAVX, hasAVX512 = leg.avx, leg.avx512
		t.Run(leg.name, f)
	}
}

// atProcs runs f at GOMAXPROCS 1, 2 and 4, restoring the setting.
func atProcs(t *testing.T, f func(t *testing.T)) {
	saved := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(saved)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), f)
	}
}

// scanWindows are ResultIn/PeakIn windows that exercise the clamping
// rules: negative lo, hi past the end, hi <= lo, lo past the end.
func scanWindows(samples int) [][2]int {
	return [][2]int{
		{0, samples}, {-3, 0}, {1, 1}, {samples / 2, samples + 10},
		{2, samples - 1}, {samples / 3, samples/3 + 17}, {samples + 5, 0},
	}
}

// TestClassCPAReadSideMatchesReference pins every read call of the
// derive-and-scan to the reference formula, bit for bit: Result,
// ResultIn (clamped windows, signed and magnitude ranking), Peak,
// PeakIn, CorrTrace and Corr, on every kernel leg and at GOMAXPROCS
// 1, 2 and 4.
func TestClassCPAReadSideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sc := range scanCases {
		c := sc.build(rng)
		m := refCorrMatrix(c)
		name := fmt.Sprintf("c%d-u%d-k%d-s%d-n%d-p%d-nan%v", sc.classes, sc.used, sc.hyps, sc.samples, sc.traces, sc.period, sc.poison)
		t.Run(name, func(t *testing.T) {
			simdLegs(t, func(t *testing.T) {
				atProcs(t, func(t *testing.T) {
					checkReadSide(t, c, m)
				})
			})
		})
	}
}

// checkReadSide compares c's read calls with the reference matrix m.
func checkReadSide(t *testing.T, c *ClassCPA, m [][]float64) {
	t.Helper()
	if d := sameAttack(c.Result(), refAttack(m, c.count, false, refPeak)); d != "" {
		t.Fatalf("Result: %s", d)
	}
	for _, w := range scanWindows(c.samples) {
		for _, signed := range []bool{false, true} {
			lo, hi := w[0], w[1]
			want := refAttack(m, c.count, signed, func(row []float64) (float64, int) {
				return refPeakIn(row, lo, hi, signed)
			})
			if d := sameAttack(c.ResultIn(lo, hi, signed), want); d != "" {
				t.Fatalf("ResultIn(%d,%d,%v): %s", lo, hi, signed, d)
			}
		}
	}
	step := max(1, c.nHyp/9)
	for k := 0; k < c.nHyp; k += step {
		got := c.CorrTrace(k)
		for s, want := range m[k] {
			if math.Float64bits(got[s]) != math.Float64bits(want) {
				t.Fatalf("CorrTrace(%d)[%d] = %x, want %x", k, s, math.Float64bits(got[s]), math.Float64bits(want))
			}
			if r := c.Corr(k, s); math.Float64bits(r) != math.Float64bits(want) {
				t.Fatalf("Corr(%d,%d) = %x, want %x", k, s, math.Float64bits(r), math.Float64bits(want))
			}
		}
		r, s := c.Peak(k)
		if wr, ws := refPeak(m[k]); math.Float64bits(r) != math.Float64bits(wr) || s != ws {
			t.Fatalf("Peak(%d) = (%v,%d), want (%v,%d)", k, r, s, wr, ws)
		}
		for _, w := range scanWindows(c.samples) {
			for _, signed := range []bool{false, true} {
				r, s := c.PeakIn(k, w[0], w[1], signed)
				wr, ws := refPeakIn(m[k], w[0], w[1], signed)
				if math.Float64bits(r) != math.Float64bits(wr) || s != ws {
					t.Fatalf("PeakIn(%d,%d,%d,%v) = (%v,%d), want (%v,%d)", k, w[0], w[1], signed, r, s, wr, ws)
				}
			}
		}
	}
}

// TestClassCPA2ReadSideMatchesReference pins the second-order wrappers,
// which read through the inner ClassCPA, to the reference.
func TestClassCPA2ReadSideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const raw = 9
	means := make([]float64, raw)
	for i := range means {
		means[i] = 0.1 * float64(i)
	}
	c := MustNewClassCPA2(raw, hwTable(), means, 1, 8)
	tr := make([]float64, raw)
	for i := 0; i < 300; i++ {
		p := rng.Intn(256)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[4] += float64(HW8(byte(p) ^ 0x5A))
		if err := c.Add(p, tr); err != nil {
			t.Fatal(err)
		}
	}
	m := refCorrMatrix(c.inner)
	simdLegs(t, func(t *testing.T) {
		atProcs(t, func(t *testing.T) {
			if d := sameAttack(c.Result(), refAttack(m, c.Count(), false, refPeak)); d != "" {
				t.Fatalf("Result: %s", d)
			}
			for k := 0; k < 256; k += 51 {
				got := c.CorrTrace(k)
				for s, want := range m[k] {
					if math.Float64bits(got[s]) != math.Float64bits(want) ||
						math.Float64bits(c.Corr(k, s)) != math.Float64bits(want) {
						t.Fatalf("hypothesis %d sample %d differs from the reference", k, s)
					}
				}
				r, s := c.Peak(k)
				wr, ws := refPeak(m[k])
				if math.Float64bits(r) != math.Float64bits(wr) || s != ws {
					t.Fatalf("Peak(%d) = (%v,%d), want (%v,%d)", k, r, s, wr, ws)
				}
			}
		})
	})
}

// TestCorrBlockKernelsBitIdentical pins the assembly block kernels to
// the portable one on random blocks of every class count up to 40,
// including zero and NaN denominators.
func TestCorrBlockKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()
	rand64 := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		return v
	}
	for nc := 0; nc <= 40; nc++ {
		strip, tbl := rand64(nc*stripLen), rand64(nc*blockHyps)
		h, sh, tt, st := rand64(blockHyps), rand64(blockHyps), rand64(stripLen), rand64(stripLen)
		sh[1], st[3], st[5] = 0, math.NaN(), math.Copysign(0, -1)
		for i := range sh {
			sh[i] = math.Abs(sh[i])
		}
		var want [blockLen]float64
		corrBlockGeneric(&want, strip, tbl, 1000, h, sh, tt, st)
		for _, leg := range []struct{ avx, avx512 bool }{{savedAVX, saved512}, {savedAVX, false}} {
			hasAVX, hasAVX512 = leg.avx, leg.avx512
			var got [blockLen]float64
			corrBlock(&got, strip, tbl, 1000, h, sh, tt, st)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("nc=%d avx512=%v element %d: %x, want %x", nc, leg.avx512, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// benchBank fills a bank of the given shape with traces of n(0,1)
// noise, cycling through a fixed set of traces so set-up stays quick.
func benchBank(b *testing.B, samples, traces int) *ClassCPA {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	c := MustNewClassCPA(samples, hwTable())
	pool := make([][]float64, 64)
	for i := range pool {
		pool[i] = make([]float64, samples)
		for s := range pool[i] {
			pool[i][s] = rng.NormFloat64()
		}
	}
	for i := 0; i < traces; i++ {
		if err := c.Add(rng.Intn(256), pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// classCPABenchShapes are the read-side benchmark shapes: the 10k-trace
// Figure 3 bank (256 classes × 256 hypotheses × 2460 samples) and one
// bank of a 700-trace AES full-key recovery.
var classCPABenchShapes = []struct {
	name            string
	samples, traces int
}{
	{"fig3-10k", 2460, 10000},
	{"fullkey-700", 2460, 700},
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	benchAttack *Attack
	benchCurve  []float64
)

// BenchmarkClassCPAResult measures one full ranking: derive-and-scan
// over every hypothesis and sample.
func BenchmarkClassCPAResult(b *testing.B) {
	for _, sh := range classCPABenchShapes {
		b.Run(sh.name, func(b *testing.B) {
			c := benchBank(b, sh.samples, sh.traces)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAttack = c.Result()
			}
		})
	}
}

// BenchmarkClassCPACorrTrace measures one hypothesis's correlation
// curve, the plotted output of a Figure 3 attack.
func BenchmarkClassCPACorrTrace(b *testing.B) {
	for _, sh := range classCPABenchShapes {
		b.Run(sh.name, func(b *testing.B) {
			c := benchBank(b, sh.samples, sh.traces)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCurve = c.CorrTrace(0x2B)
			}
		})
	}
}
