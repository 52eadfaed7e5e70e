package sca

import (
	"fmt"
	"math"
)

var _ Accumulator = (*ClassCPA2)(nil)

// ClassCPA2 is a second-order conditional-sum CPA engine: it attacks a
// first-order masked implementation by combining pairs of trace points
// with centered products before accumulation. For every unordered pair
// (i, j) with lo <= i <= j < hi the combined sample is
//
//	c_ij = (t[i] − μ[i]) · (t[j] − μ[j])
//
// where μ is a fixed centering vector (the mean trace of a first pass
// over the same trace sequence). The combined trace then feeds an
// ordinary ClassCPA over the pair space, so all of the conditional-sum
// machinery — class bucketing, derived Pearson sums, the pinned
// vector kernels — is reused unchanged. Including the diagonal (i == i)
// matters: a dual-issued share pair leaks both shares in the *same*
// cycle, where the second-order signal lives in the centered square
// (the variance of HW(s0)+HW(s1) is key-dependent), not in a cross
// product of two distinct cycles.
//
// Determinism contract. The centering vector is a constructor constant,
// so each combined trace is a pure function of its raw trace alone; the
// expansion loop visits pairs in fixed lexicographic order; and the
// inner ClassCPA receives combined traces in arrival order. Under the
// engine's ordered reduction, AddBatch is therefore bit-identical to
// per-trace Add calls in trace order for any worker count, chunk size
// or lane width — the same pin the first-order kernels carry.
type ClassCPA2 struct {
	inner      *ClassCPA
	rawSamples int
	lo, hi     int
	means      []float64
	comb       []float64 // pair-expansion scratch, reused across Adds
}

// Order2Pairs returns the combined-sample count of the window [lo, hi):
// all unordered pairs including the diagonal.
func Order2Pairs(lo, hi int) int {
	w := hi - lo
	return w * (w + 1) / 2
}

// NewClassCPA2 returns a second-order engine over raw traces of
// rawSamples points. table is the hypothesis table of the inner
// ClassCPA (table[p][k] = hypothesis k's prediction for class p), means
// the centering vector (length rawSamples), and [lo, hi) the combining
// window over raw sample indices; hi == 0 selects the full trace.
func NewClassCPA2(rawSamples int, table [][]float64, means []float64, lo, hi int) (*ClassCPA2, error) {
	if rawSamples < 1 {
		return nil, fmt.Errorf("sca: need at least 1 raw sample, got %d", rawSamples)
	}
	if len(means) != rawSamples {
		return nil, fmt.Errorf("sca: centering vector has %d samples, want %d", len(means), rawSamples)
	}
	if hi == 0 {
		hi = rawSamples
	}
	if lo < 0 || hi > rawSamples || lo >= hi {
		return nil, fmt.Errorf("sca: combining window [%d,%d) out of [0,%d)", lo, hi, rawSamples)
	}
	inner, err := NewClassCPA(Order2Pairs(lo, hi), table)
	if err != nil {
		return nil, err
	}
	c := &ClassCPA2{
		inner:      inner,
		rawSamples: rawSamples,
		lo:         lo,
		hi:         hi,
		means:      make([]float64, rawSamples),
		comb:       make([]float64, Order2Pairs(lo, hi)),
	}
	copy(c.means, means)
	return c, nil
}

// MustNewClassCPA2 is NewClassCPA2 that panics on bad arguments.
func MustNewClassCPA2(rawSamples int, table [][]float64, means []float64, lo, hi int) *ClassCPA2 {
	c, err := NewClassCPA2(rawSamples, table, means, lo, hi)
	if err != nil {
		panic(err)
	}
	return c
}

// Window returns the combining window [lo, hi) over raw samples.
func (c *ClassCPA2) Window() (lo, hi int) { return c.lo, c.hi }

// Pairs returns the combined-sample count.
func (c *ClassCPA2) Pairs() int { return c.inner.samples }

// PairOf maps a combined sample index back to its raw index pair
// (i <= j), inverting the lexicographic expansion order.
func (c *ClassCPA2) PairOf(s int) (i, j int) {
	if s < 0 || s >= c.inner.samples {
		return -1, -1
	}
	for i = c.lo; i < c.hi; i++ {
		row := c.hi - i // pairs (i,i)..(i,hi-1)
		if s < row {
			return i, i + s
		}
		s -= row
	}
	return -1, -1
}

// Classes returns the model-input class count.
func (c *ClassCPA2) Classes() int { return c.inner.classes }

// Hypotheses returns the hypothesis count.
func (c *ClassCPA2) Hypotheses() int { return c.inner.nHyp }

// Count returns the number of accumulated traces.
func (c *ClassCPA2) Count() int { return c.inner.count }

// combineInto expands the centered products of t's window into dst in
// lexicographic pair order. The expansion is a pure per-trace function
// — no accumulator state is read — so it commutes with any scheduling.
func (c *ClassCPA2) combineInto(dst, t []float64) {
	k := 0
	for i := c.lo; i < c.hi; i++ {
		ci := t[i] - c.means[i]
		for j := i; j < c.hi; j++ {
			dst[k] = ci * (t[j] - c.means[j])
			k++
		}
	}
}

// Add accumulates one raw trace under its model-input class. The same
// (class, trace) sequence always leaves bit-identical state.
func (c *ClassCPA2) Add(class int, t []float64) error {
	if len(t) != c.rawSamples {
		return fmt.Errorf("sca: trace has %d samples, want %d", len(t), c.rawSamples)
	}
	c.combineInto(c.comb, t)
	return c.inner.Add(class, c.comb)
}

// AddBatch accumulates a batch of raw traces under their classes. It is
// bit-identical to calling Add(classes[i], traces[i]) in ascending i:
// each combined trace is expanded by the same pure per-trace function
// and handed to the inner ClassCPA's batch path, which is itself pinned
// to its serial reference. Like the other batch kernels it validates
// the whole batch before touching any state.
func (c *ClassCPA2) AddBatch(classes []int, traces [][]float64) error {
	if len(classes) != len(traces) {
		return fmt.Errorf("sca: batch of %d traces with %d classes", len(traces), len(classes))
	}
	for i, t := range traces {
		if len(t) != c.rawSamples {
			return fmt.Errorf("sca: trace %d of batch has %d samples, want %d", i, len(t), c.rawSamples)
		}
		if classes[i] < 0 || classes[i] >= c.inner.classes {
			return fmt.Errorf("sca: trace %d of batch has class %d out of [0,%d)", i, classes[i], c.inner.classes)
		}
	}
	for i, t := range traces {
		c.combineInto(c.comb, t)
		if err := c.inner.Add(classes[i], c.comb); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns an independent deep copy of the accumulator state.
func (c *ClassCPA2) Clone() *ClassCPA2 {
	o := &ClassCPA2{
		inner:      c.inner.Clone(),
		rawSamples: c.rawSamples,
		lo:         c.lo,
		hi:         c.hi,
		means:      make([]float64, len(c.means)),
		comb:       make([]float64, len(c.comb)),
	}
	copy(o.means, c.means)
	return o
}

// Equal reports whether two accumulators hold bit-identical state —
// the strict equivalence the determinism tests assert.
func (c *ClassCPA2) Equal(o *ClassCPA2) bool {
	if c.rawSamples != o.rawSamples || c.lo != o.lo || c.hi != o.hi {
		return false
	}
	for i := range c.means {
		if math.Float64bits(c.means[i]) != math.Float64bits(o.means[i]) {
			return false
		}
	}
	return c.inner.Equal(o.inner)
}

// Corr returns the correlation of hypothesis k at combined sample s.
func (c *ClassCPA2) Corr(k, s int) float64 { return c.inner.Corr(k, s) }

// CorrTrace returns hypothesis k's correlation curve over the combined
// pair space (index via PairOf).
func (c *ClassCPA2) CorrTrace(k int) []float64 { return c.inner.CorrTrace(k) }

// Peak returns hypothesis k's maximum absolute correlation over all
// pairs and the combined sample index where it occurs.
func (c *ClassCPA2) Peak(k int) (corr float64, sample int) { return c.inner.Peak(k) }

// Result computes the ranking summary over all hypotheses.
func (c *ClassCPA2) Result() *Attack { return c.inner.Result() }
