package sca

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Accumulator is the read side shared by the streaming correlation
// engines: everything an attack evaluates after (or while) traces
// accumulate. CPA implements it by maintaining the Pearson sums
// directly; ClassCPA by deriving them from per-class trace sums.
type Accumulator interface {
	// Count returns the number of accumulated traces.
	Count() int
	// Corr returns the correlation of hypothesis k at sample s.
	Corr(k, s int) float64
	// CorrTrace returns hypothesis k's correlation-vs-time curve.
	CorrTrace(k int) []float64
	// Peak returns hypothesis k's maximum absolute correlation and its
	// sample index.
	Peak(k int) (corr float64, sample int)
	// Result computes the ranking summary over all hypotheses.
	Result() *Attack
}

var (
	_ Accumulator = (*CPA)(nil)
	_ Accumulator = (*ClassCPA)(nil)
)

// ClassCPA is a streaming CPA engine for table-driven leakage models:
// attacks where every hypothesis's prediction for a trace is a function
// of one small model input — for the paper's Figure 3 model,
// HW(SubBytes(pt[b] ^ k)) depends only on the plaintext byte. Instead
// of accumulating 256 hypothesis rows per trace, it buckets traces by
// the model input ("class") and keeps one running sum per class; every
// Pearson sum the correlation needs is then derived exactly from the
// class sums and the hypothesis table:
//
//	Σh   = Σ_p n_p·H[p][k]      Σh·t = Σ_p H[p][k]·S_p[t]
//
// where n_p counts and S_p sums the traces of class p. This is the
// conditional-sum optimization of classical CPA tooling: per-trace cost
// drops from hypotheses×samples multiply-adds to a single samples-long
// add, with the hypothesis dimension paid once at evaluation time.
//
// Determinism contract. The accumulator state is a pure function of the
// trace sequence: each class sum receives its traces' samples in
// arrival order (one rounded add per trace), and arrival order is trace
// order under the engine's ordered reduction — so the state never
// depends on workers, chunking or lane width. Derivation sweeps classes
// in ascending index, skipping empty classes (their contribution is a
// ±0 that cannot change any accumulated bit), so every statistic is a
// pure function of the state. Add the same traces in the same order and
// every derived correlation is bit-identical.
type ClassCPA struct {
	classes int
	nHyp    int
	samples int
	count   int

	table    []float64 // [p*nHyp + k]: hypothesis k's prediction for class p
	classN   []int64   // per class: trace count
	classSum []float64 // [p*samples + s]: Σt over the class's traces
	sumT     []float64 // per sample: Σt
	sumTT    []float64 // per sample: Σt²
}

// NewClassCPA returns a class-sum engine over the given hypothesis
// table: table[p][k] is hypothesis k's predicted leakage for model-input
// class p. All rows must share one length (the hypothesis count, >= 2).
func NewClassCPA(samples int, table [][]float64) (*ClassCPA, error) {
	if samples < 1 {
		return nil, fmt.Errorf("sca: need at least 1 sample, got %d", samples)
	}
	if len(table) < 1 {
		return nil, fmt.Errorf("sca: need at least 1 model-input class")
	}
	nHyp := len(table[0])
	if nHyp < 2 {
		return nil, fmt.Errorf("sca: need at least 2 hypotheses, got %d", nHyp)
	}
	c := &ClassCPA{
		classes:  len(table),
		nHyp:     nHyp,
		samples:  samples,
		table:    make([]float64, len(table)*nHyp),
		classN:   make([]int64, len(table)),
		classSum: make([]float64, len(table)*samples),
		sumT:     make([]float64, samples),
		sumTT:    make([]float64, samples),
	}
	for p, row := range table {
		if len(row) != nHyp {
			return nil, fmt.Errorf("sca: class %d has %d hypotheses, want %d", p, len(row), nHyp)
		}
		copy(c.table[p*nHyp:], row)
	}
	return c, nil
}

// MustNewClassCPA is NewClassCPA that panics on a bad table.
func MustNewClassCPA(samples int, table [][]float64) *ClassCPA {
	c, err := NewClassCPA(samples, table)
	if err != nil {
		panic(err)
	}
	return c
}

// Classes returns the model-input class count.
func (c *ClassCPA) Classes() int { return c.classes }

// Hypotheses returns the hypothesis count.
func (c *ClassCPA) Hypotheses() int { return c.nHyp }

// Count returns the number of accumulated traces.
func (c *ClassCPA) Count() int { return c.count }

// MeanTrace returns the per-sample mean trace Σt/n — the centering
// vector a second-order pass feeds to NewClassCPA2. It is a pure
// function of the accumulator state: sumT receives its per-trace adds
// in trace order, so two runs over the same trace sequence return
// bit-identical means.
func (c *ClassCPA) MeanTrace() []float64 {
	out := make([]float64, c.samples)
	if c.count == 0 {
		return out
	}
	n := float64(c.count)
	for s, v := range c.sumT {
		out[s] = v / n
	}
	return out
}

// Add accumulates one trace under its model-input class. Accumulation
// order is the determinism contract: the same (class, trace) sequence
// always leaves bit-identical state.
func (c *ClassCPA) Add(class int, t []float64) error {
	if class < 0 || class >= c.classes {
		return fmt.Errorf("sca: class %d out of [0,%d)", class, c.classes)
	}
	if len(t) != c.samples {
		return fmt.Errorf("sca: trace has %d samples, want %d", len(t), c.samples)
	}
	classAddInto(c.sumT, c.sumTT, c.classSum[class*c.samples:(class+1)*c.samples], t)
	c.classN[class]++
	c.count++
	return nil
}

// AddBatch accumulates a batch of traces with their classes, bit-
// identically to calling Add(classes[i], traces[i]) in ascending i.
func (c *ClassCPA) AddBatch(classes []int, traces [][]float64) error {
	if len(classes) != len(traces) {
		return fmt.Errorf("sca: batch of %d traces with %d classes", len(traces), len(classes))
	}
	for i, t := range traces {
		if len(t) != c.samples {
			return fmt.Errorf("sca: trace %d of batch has %d samples, want %d", i, len(t), c.samples)
		}
		if classes[i] < 0 || classes[i] >= c.classes {
			return fmt.Errorf("sca: trace %d of batch has class %d, out of [0,%d)", i, classes[i], c.classes)
		}
	}
	for i, t := range traces {
		p := classes[i]
		classAddInto(c.sumT, c.sumTT, c.classSum[p*c.samples:(p+1)*c.samples], t)
		c.classN[p]++
	}
	c.count += len(traces)
	return nil
}

// Read side. Every statistic is derived on demand from the class state,
// Σh·t never materialized: a derive-and-scan walks the sample window in
// strips of stripLen samples, packs each strip's non-empty class rows
// once, and for every block of blockHyps hypotheses derives the block's
// Σh·t with a register-blocked kernel (corrBlock) that turns it straight
// into correlations. Result and ResultIn fold each block into the
// hypotheses' running peaks; CorrTrace keeps one row.
//
// Bit identity. Each Σh·t element is one chain, whatever the packing,
// blocking or strip split: it starts from +0 and, for every non-empty
// class in ascending index, adds the separately rounded product
// H[p][k]·S_p[s] (no fused multiply-add; the explicit float64
// conversions below forbid the compiler from fusing one). Empty classes
// are skipped: their 0·h terms are ±0 values whose addition cannot
// alter any accumulated bit, since exact cancellation rounds to +0 and
// x+(±0) keeps x's bits for every non-zero x. The Pearson formula hoists
// sqrt(n·Σhh−Σh²) per hypothesis and sqrt(n·Σtt−Σt²) per sample — the
// same expressions, so the same bits. Corr, the kernels and the
// portable reference all evaluate exactly this.

const (
	blockHyps = 4                    // hypotheses per kernel block
	stripLen  = 16                   // samples per strip
	blockLen  = blockHyps * stripLen // correlations per block
	// parallelWork is the derivation size (non-empty classes ×
	// hypotheses × samples, padded to whole blocks) from which a scan
	// splits its strips across cores; smaller scans run serially.
	parallelWork = 1 << 20
)

// pearson is the correlation formula every read path shares: ht = Σh·t
// of the hypothesis, h = Σh, t = Σt at the sample, sh and st the hoisted
// square roots. A zero or NaN denominator gives 0.
func pearson(n, ht, h, sh, t, st float64) float64 {
	den := sh * st
	if den == 0 || den != den {
		return 0
	}
	return (float64(n*ht) - float64(h*t)) / den
}

// corrBlockGeneric is the portable reference kernel: for hypotheses
// i < blockHyps and samples j < stripLen it derives Σh·t over the
// len(tbl)/blockHyps packed classes — strip holds their sample rows,
// tbl their coefficient rows — and writes pearson of it to
// out[i*stripLen+j].
func corrBlockGeneric(out *[blockLen]float64, strip, tbl []float64, n float64, h, sh, t, st []float64) {
	var acc [blockLen]float64
	for pi := 0; pi < len(tbl)/blockHyps; pi++ {
		x := strip[pi*stripLen : (pi+1)*stripLen]
		for i, a := range tbl[pi*blockHyps : (pi+1)*blockHyps] {
			row := acc[i*stripLen : (i+1)*stripLen]
			for j, v := range x {
				row[j] += float64(a * v)
			}
		}
	}
	for i := 0; i < blockHyps; i++ {
		for j := 0; j < stripLen; j++ {
			out[i*stripLen+j] = pearson(n, acc[i*stripLen+j], h[i], sh[i], t[j], st[j])
		}
	}
}

// hypSums writes Σh and Σh² of hypotheses k0, k0+1, … into sumH and
// sumHH (hypotheses past the table get 0), sweeping the non-empty
// classes in ascending index.
func (c *ClassCPA) hypSums(sumH, sumHH []float64, k0 int) {
	for p := 0; p < c.classes; p++ {
		if c.classN[p] == 0 {
			continue
		}
		np := float64(c.classN[p])
		for i := range sumH {
			if k0+i >= c.nHyp {
				break
			}
			h := c.table[p*c.nHyp+k0+i]
			sumH[i] += float64(np * h)
			sumHH[i] += float64(np * float64(h*h))
		}
	}
}

// sqrtVar is sqrt(n·Σx² − (Σx)²), the hoisted half of a denominator.
func sqrtVar(n, sum, sumSq float64) float64 {
	return math.Sqrt(float64(n*sumSq) - float64(sum*sum))
}

// corrPlan is one derive-and-scan: hypothesis blocks [kb0, kb1) over the
// sample window [lo, hi), cut into strips of stripLen samples. It holds
// what every strip shares.
type corrPlan struct {
	c        *ClassCPA
	kb0, kb1 int
	lo, hi   int
	strips   int
	n        float64
	cls      []int     // the non-empty classes, ascending
	tbl      []float64 // per block: len(cls) rows of blockHyps coefficients
	sumH     []float64 // [k − kb0·blockHyps]: Σh
	sqH      []float64 // [k − kb0·blockHyps]: sqrt(n·Σhh − Σh²)
	sumT     []float64 // [s − lo], padded to whole strips: Σt
	sqT      []float64 // [s − lo], padded to whole strips: sqrt(n·Σtt − Σt²)
}

// plan prepares a scan of hypotheses [kLo, kHi) over samples [lo, hi).
// The caller guarantees count >= 2 and lo < hi.
func (c *ClassCPA) plan(kLo, kHi, lo, hi int) *corrPlan {
	pl := &corrPlan{
		c:   c,
		kb0: kLo / blockHyps, kb1: (kHi + blockHyps - 1) / blockHyps,
		lo: lo, hi: hi,
		strips: (hi - lo + stripLen - 1) / stripLen,
		n:      float64(c.count),
	}
	for p := 0; p < c.classes; p++ {
		if c.classN[p] != 0 {
			pl.cls = append(pl.cls, p)
		}
	}
	nk := (pl.kb1 - pl.kb0) * blockHyps
	pl.tbl = make([]float64, nk*len(pl.cls))
	for b := 0; b < pl.kb1-pl.kb0; b++ {
		blk := pl.tbl[b*len(pl.cls)*blockHyps:]
		for pi, p := range pl.cls {
			for i := 0; i < blockHyps; i++ {
				if k := (pl.kb0+b)*blockHyps + i; k < c.nHyp {
					blk[pi*blockHyps+i] = c.table[p*c.nHyp+k]
				}
			}
		}
	}
	pl.sumH, pl.sqH = make([]float64, nk), make([]float64, nk)
	sumHH := make([]float64, nk)
	c.hypSums(pl.sumH, sumHH, pl.kb0*blockHyps)
	for i := range pl.sqH {
		pl.sqH[i] = sqrtVar(pl.n, pl.sumH[i], sumHH[i])
	}
	ns := pl.strips * stripLen
	pl.sumT, pl.sqT = make([]float64, ns), make([]float64, ns)
	for s := lo; s < hi; s++ {
		pl.sumT[s-lo] = c.sumT[s]
		pl.sqT[s-lo] = sqrtVar(pl.n, c.sumT[s], c.sumTT[s])
	}
	return pl
}

// parts returns how many contiguous strip ranges the scan runs as: one
// per core once the derivation is large enough to pay for the
// goroutines, one otherwise.
func (pl *corrPlan) parts() int {
	work := len(pl.cls) * len(pl.sumH) * len(pl.sumT)
	if work < parallelWork {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), pl.strips)
}

// run calls body(part, a, b) for part's strip range [a, b), every part
// concurrently when there are several.
func (pl *corrPlan) run(parts int, body func(part, a, b int)) {
	if parts == 1 {
		body(0, 0, pl.strips)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, w*pl.strips/parts, (w+1)*pl.strips/parts)
		}()
	}
	wg.Wait()
}

// scan derives strips [a, b): each strip's non-empty class rows are
// packed once, then every hypothesis block's correlations are handed to
// emit with the block index, the strip's first sample and its valid
// width.
func (pl *corrPlan) scan(a, b int, emit func(kb, s0, w int, r *[blockLen]float64)) {
	nc := len(pl.cls)
	strip := make([]float64, nc*stripLen)
	var r [blockLen]float64
	for i := a; i < b; i++ {
		s0 := pl.lo + i*stripLen
		w := min(stripLen, pl.hi-s0)
		for pi, p := range pl.cls {
			dst := strip[pi*stripLen : (pi+1)*stripLen]
			copy(dst, pl.c.classSum[p*pl.c.samples+s0:][:w])
			clear(dst[w:])
		}
		t, st := pl.sumT[i*stripLen:(i+1)*stripLen], pl.sqT[i*stripLen:(i+1)*stripLen]
		for kb := pl.kb0; kb < pl.kb1; kb++ {
			o := (kb - pl.kb0) * blockHyps
			corrBlock(&r, strip, pl.tbl[o*nc:(o+blockHyps)*nc], pl.n,
				pl.sumH[o:o+blockHyps], pl.sqH[o:o+blockHyps], t, st)
			emit(kb, s0, w, &r)
		}
	}
}

// peak is a running peak search: the best correlation so far, its
// sample, and whether one has been taken.
type peak struct {
	r    float64
	s    int
	have bool
}

// fold runs the peak rule over row, whose first element is sample s0:
// an element replaces the peak when none is held yet or when it is
// strictly better — larger when signed, larger in magnitude otherwise —
// so ties keep the earliest sample.
func (p *peak) fold(row []float64, s0 int, signed bool) {
	best, idx, have := p.r, p.s, p.have
	if signed {
		for j, v := range row {
			if !have || v > best {
				best, idx, have = v, s0+j, true
			}
		}
	} else {
		mag := math.Abs(best)
		for j, v := range row {
			if a := math.Abs(v); !have || a > mag {
				best, idx, have, mag = v, s0+j, true, a
			}
		}
	}
	*p = peak{best, idx, have}
}

// peaks returns the peak of each hypothesis in [kLo, kHi) over the
// window [lo, hi), each search starting from init.
//
// Split across cores, the first strip range folds from init and every
// other range from a floor no correlation loses to (0 in magnitude, −Inf
// signed) with no sample, so a range's partial is its first strictly
// best element. Folding the partials into the first in ascending range
// order with the same rule gives the element a serial scan picks — the
// earliest maximum — at any core count.
func (c *ClassCPA) peaks(kLo, kHi, lo, hi int, signed bool, init peak) []peak {
	out := make([]peak, kHi-kLo)
	for i := range out {
		out[i] = init
	}
	if c.count < 2 || hi <= lo {
		// Every correlation is 0: no search moves off init's value, and
		// a search without a peak yet takes the first sample, lo.
		return out
	}
	pl := c.plan(kLo, kHi, lo, hi)
	parts := pl.parts()
	partial := make([][]peak, parts)
	partial[0] = out
	floor := peak{s: -1, have: true}
	if signed {
		floor.r = math.Inf(-1)
	}
	for w := 1; w < parts; w++ {
		partial[w] = make([]peak, kHi-kLo)
		for i := range partial[w] {
			partial[w][i] = floor
		}
	}
	pl.run(parts, func(part, a, b int) {
		ps := partial[part]
		pl.scan(a, b, func(kb, s0, w int, r *[blockLen]float64) {
			for i := 0; i < blockHyps; i++ {
				if k := kb*blockHyps + i; k >= kLo && k < kHi {
					ps[k-kLo].fold(r[i*stripLen:i*stripLen+w], s0, signed)
				}
			}
		})
	})
	for _, ps := range partial[1:] {
		for i, q := range ps {
			if q.s >= 0 {
				out[i].fold([]float64{q.r}, q.s, signed)
			}
		}
	}
	return out
}

// window clamps a sample window to the trace: a negative lo becomes 0,
// and an empty or overlong window becomes [lo, samples).
func (c *ClassCPA) window(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo || hi > c.samples {
		hi = c.samples
	}
	return lo, hi
}

// Corr returns the correlation of hypothesis k at sample s: one Σh·t
// dot product over the classes, bit-identical to the same element of a
// derive-and-scan.
func (c *ClassCPA) Corr(k, s int) float64 {
	if c.count < 2 {
		return 0
	}
	var h, hh [1]float64
	c.hypSums(h[:], hh[:], k)
	ht := 0.0
	for p := 0; p < c.classes; p++ {
		if c.classN[p] != 0 {
			ht += float64(c.table[p*c.nHyp+k] * c.classSum[p*c.samples+s])
		}
	}
	n := float64(c.count)
	return pearson(n, ht, h[0], sqrtVar(n, h[0], hh[0]), c.sumT[s], sqrtVar(n, c.sumT[s], c.sumTT[s]))
}

// CorrTrace returns the correlation-vs-time curve of hypothesis k,
// deriving only k's row.
func (c *ClassCPA) CorrTrace(k int) []float64 {
	out := make([]float64, c.samples)
	if c.count < 2 {
		return out
	}
	pl := c.plan(k, k+1, 0, c.samples)
	i := k % blockHyps
	pl.run(pl.parts(), func(_, a, b int) {
		pl.scan(a, b, func(_, s0, w int, r *[blockLen]float64) {
			copy(out[s0:s0+w], r[i*stripLen:])
		})
	})
	return out
}

// Peak returns the maximum absolute correlation of hypothesis k and the
// sample where it occurs (0 and sample 0 when no correlation is
// non-zero).
func (c *ClassCPA) Peak(k int) (corr float64, sample int) {
	p := c.peaks(k, k+1, 0, c.samples, false, peak{have: true})[0]
	return p.r, p.s
}

// PeakIn returns hypothesis k's peak correlation within the sample
// window [lo,hi). Out-of-range bounds clamp to the trace; when signed
// is set the peak is the maximum signed correlation rather than the
// maximum magnitude. The window's first correlation is always a
// candidate.
func (c *ClassCPA) PeakIn(k, lo, hi int, signed bool) (corr float64, sample int) {
	lo, hi = c.window(lo, hi)
	p := c.peaks(k, k+1, lo, hi, signed, peak{s: lo, have: false})[0]
	return p.r, p.s
}

// ResultIn computes the attack summary restricted to the sample window
// [lo,hi), ranking hypotheses by signed correlation when signed is set.
// Windowing confines the peak search to where the attacked operation
// actually executes, suppressing deterministic ghost peaks from other
// cipher operations; signed ranking resolves the exact complement
// ambiguity of XOR-Hamming-weight models, where hypothesis k^0xff
// predicts the precise negation of hypothesis k and |r| alone cannot
// separate the two. Each hypothesis's peak is PeakIn's.
func (c *ClassCPA) ResultIn(lo, hi int, signed bool) *Attack {
	lo, hi = c.window(lo, hi)
	return c.summary(c.peaks(0, c.nHyp, lo, hi, signed, peak{s: lo, have: false}), signed)
}

// Result computes the attack summary, exactly as CPA.Result does over
// the derived sums: each hypothesis's peak is Peak's.
func (c *ClassCPA) Result() *Attack {
	return c.summary(c.peaks(0, c.nHyp, 0, c.samples, false, peak{have: true}), false)
}

// summary ranks the hypotheses by peak, descending — by signed value
// when signed is set, by magnitude otherwise — with a stable insertion
// sort, so equal peaks keep hypothesis order.
func (c *ClassCPA) summary(ps []peak, signed bool) *Attack {
	a := &Attack{
		Peaks:       make([]float64, c.nHyp),
		PeakSamples: make([]int, c.nHyp),
		Ranking:     make([]int, c.nHyp),
		Traces:      c.count,
	}
	for k, p := range ps {
		a.Peaks[k] = p.r
		a.PeakSamples[k] = p.s
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

// Equal reports bit-identical accumulator state — the strict
// equivalence the engine's determinism tests assert.
func (c *ClassCPA) Equal(o *ClassCPA) bool {
	if c.classes != o.classes || c.nHyp != o.nHyp || c.samples != o.samples || c.count != o.count {
		return false
	}
	for p := range c.classN {
		if c.classN[p] != o.classN[p] {
			return false
		}
	}
	eq := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	return eq(c.table, o.table) && eq(c.classSum, o.classSum) &&
		eq(c.sumT, o.sumT) && eq(c.sumTT, o.sumTT)
}

// Clone returns an independent deep copy of the accumulator state. The
// hypothesis table — immutable after construction — is shared, not
// copied.
func (c *ClassCPA) Clone() *ClassCPA {
	o := &ClassCPA{
		classes:  c.classes,
		nHyp:     c.nHyp,
		samples:  c.samples,
		count:    c.count,
		table:    c.table,
		classN:   append([]int64(nil), c.classN...),
		classSum: append([]float64(nil), c.classSum...),
		sumT:     append([]float64(nil), c.sumT...),
		sumTT:    append([]float64(nil), c.sumTT...),
	}
	return o
}

// Reset clears the accumulated state, keeping the table.
func (c *ClassCPA) Reset() {
	clear(c.classN)
	clear(c.classSum)
	clear(c.sumT)
	clear(c.sumTT)
	c.count = 0
}
