package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/leakscan"
	"repro/internal/pipeline"
	"repro/internal/replay"
	"repro/internal/sca"
	"repro/internal/target"
)

// The traced legs. Each repeats one operation's work through the public
// call of every layer, timing each call from here: the target registry,
// engine.NewSynthesizer and replay compilation, engine.RunBatched (or
// engine.Run) driven by benchmark-owned callbacks, power expansion fed
// by a benchmark-owned noise source, and the accumulators' result
// calls. Accumulation happens inside the engine's reducer, which the
// benchmark cannot time, so each leg re-runs it afterwards as an
// isolated stage on the leg's own first chunk. Every leg checks that
// its result is bit-equal to the untraced operation's, so the traced
// run measures the same work.

// attackPadNops is the flush padding the attack package builds every
// target with.
const attackPadNops = 8

// attackJob is one class-table CPA: the shape of attack.RunCPA
// (one byte), attack.RecoverKey (every byte) and
// attack.RankEvolutionFor (one byte, checkpoints).
type attackJob struct {
	name   string
	key    []byte
	opt    attack.Fig3Options
	bytes  []int
	counts []int // rank-evolution checkpoints; nil otherwise
	corr   bool  // compute the true key's correlation trace, as RunCPA does
}

// attackOut is what a traced attack leg reports for the bit-equality
// check: the final true-key rank of every attacked byte (nil for rank
// evolution), the first byte's distinguishing confidence and
// correlation trace, and the rank at each checkpoint.
type attackOut struct {
	ranks []int
	conf  float64
	corr  []float64
	curve []int
}

// attackLeg runs one class-table CPA through the public calls.
func attackLeg(tr *tracer, job attackJob) (*attackOut, error) {
	opt := job.opt
	var (
		inst target.Instance
		info target.Info
		err  error
	)
	tr.timeIn(lBuild, func() {
		var tgt target.Target
		if tgt, err = target.Get(job.name); err != nil {
			return
		}
		info = tgt.Info()
		inst, err = tgt.New(opt.Core, job.key, opt.Rounds, attackPadNops)
	})
	if err != nil {
		return nil, err
	}
	zero := make([]byte, info.BlockSize)
	var synth *engine.Synthesizer
	tr.timeIn(lCompile, func() {
		if synth, err = engine.NewSynthesizer(opt.Synth, opt.Core, inst.Program()); err != nil {
			return
		}
		err = compileSchedule(opt.Synth, opt.Core, inst.Program(), func(c *pipeline.Core) { inst.InitCore(c, zero) })
	})
	if err != nil {
		return nil, err
	}
	var cal *pipeline.Result
	tr.timeIn(lSimulate, func() { cal, err = target.Run(inst, opt.Core, zero) })
	if err != nil {
		return nil, err
	}
	spc := opt.Model.SamplesPerCycle
	nSamples := len(cal.Timeline) * spc
	rank := ranker(inst, cal, spc)

	n := opt.Traces
	var checkpoints []int
	if job.counts != nil {
		checkpoints = append([]int(nil), job.counts...)
		slices.Sort(checkpoints)
		checkpoints = slices.Compact(checkpoints)
		n = checkpoints[len(checkpoints)-1]
	}
	banks := make([]engine.Bank, len(job.bytes))
	for i, b := range job.bytes {
		banks[i] = engine.Bank{Hyps: 256, Classes: inst.ClassTable(b)}
	}
	out := &attackOut{}
	rankTimed := func(b int, acc sca.Accumulator) *sca.Attack {
		s := time.Now()
		att := rank(b, acc.(*sca.ClassCPA))
		tr.add(lCorr, time.Since(s))
		tr.corrCalls.Add(1)
		return att
	}
	spec := engine.Spec{Traces: n, Samples: nSamples, Banks: banks, Seed: opt.Seed, Checkpoints: checkpoints}
	if checkpoints != nil {
		trueKey := int(inst.TrueKeyByte(job.bytes[0]))
		spec.OnCheckpoint = func(_ int, accs []sca.Accumulator) {
			out.curve = append(out.curve, rankTimed(job.bytes[0], accs[0]).RankOf(trueKey))
		}
	}

	bs, avg := info.BlockSize, max(opt.Averages, 1)
	states := make([]uint64, n)
	clk := newLaneClock(n)
	keep := newCapture(n, len(job.bytes), false)
	setClasses := func(sm *engine.Sample, pt []byte) {
		for i, b := range job.bytes {
			sm.Class[i] = inst.Class(b, pt)
		}
	}
	bg := engine.BatchGen{
		Synth: synth,
		Model: &opt.Model,
		Lanes: opt.Lanes,
		// The plaintext comes from the benchmark's replica of the
		// trace's stream, so the noise source below continues it.
		Prepare: func(i int, _ *rand.Rand, core *pipeline.Core, sm *engine.Sample) error {
			t0 := clk.now()
			src := &splitMix{state: traceState(opt.Seed, i)}
			if cap(sm.Aux) < bs {
				sm.Aux = make([]byte, bs)
			}
			sm.Aux = sm.Aux[:bs]
			rand.New(src).Read(sm.Aux)
			states[i] = src.state
			inst.InitCore(core, sm.Aux)
			setClasses(sm, sm.Aux)
			clk.prepStart[i], clk.prepEnd[i] = t0, clk.now()
			tr.prepares.Add(1)
			return nil
		},
		Verify: func(i int, core *pipeline.Core, sm *engine.Sample) error {
			clk.postVM[i] = clk.now()
			return inst.VerifyOutput(core.Mem(), sm.Aux)
		},
		Acquire: func(i int, _ *rand.Rand, cycles []float64, sm *engine.Sample) error {
			sm.Trace = tr.expandTimed(&opt.Model, sm.Trace, cycles, &states[i], avg)
			keep.keep(i, sm.Trace, sm.Class, nil)
			return nil
		},
		Scalar: func(i int, rng *rand.Rand, sm *engine.Sample) error {
			tr.scalars.Add(1)
			pt := make([]byte, bs)
			rng.Read(pt)
			l := runLayer(synth)
			var use time.Duration
			s := time.Now()
			err := synth.Run(
				func(core *pipeline.Core) { inst.InitCore(core, pt) },
				func(tl pipeline.Timeline, core *pipeline.Core) error {
					if err := inst.VerifyOutput(core.Mem(), pt); err != nil {
						return err
					}
					u := time.Now()
					sm.Trace, sm.Scratch = opt.Model.SynthesizeAveragedInto(sm.Trace, sm.Scratch, tl, rng, opt.Averages)
					use = time.Since(u)
					return nil
				})
			tr.add(l, time.Since(s)-use)
			tr.add(lSynthesize, use)
			if err != nil {
				return err
			}
			setClasses(sm, pt)
			keep.keep(i, sm.Trace, sm.Class, nil)
			return nil
		},
	}
	accs, err := engine.RunBatched(engine.Config{Workers: opt.Workers}, spec, bg)
	if err != nil {
		return nil, err
	}
	tr.add(lReplayBatch, clk.vmTime(checkpoints))

	err = tr.isolated(lClassAdd, func() error {
		for b := range banks {
			acc, err := sca.NewClassCPA(nSamples, banks[b].Classes)
			if err != nil {
				return err
			}
			err = keep.replay(n, func(k int) error {
				return acc.AddBatch(keep.classes[b][:k], keep.traces[:k])
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if checkpoints == nil {
		for i, b := range job.bytes {
			att := rankTimed(b, accs[i])
			trueKey := int(inst.TrueKeyByte(b))
			out.ranks = append(out.ranks, att.RankOf(trueKey))
			if i == 0 {
				out.conf = att.DistinguishConfidence()
				if job.corr {
					tr.timeIn(lCorr, func() { out.corr = accs[0].CorrTrace(trueKey) })
				}
			}
		}
	}
	return out, nil
}

// compileSchedule compiles prog's replay schedule and lowers it to the
// lane-parallel form, from a core prepared by init — the work a
// replaying Synthesizer does on its first run and first batch.
func compileSchedule(mode engine.Mode, cfg pipeline.Config, prog *isa.Program, init func(*pipeline.Core)) error {
	if mode == engine.ModeSimulate {
		return nil
	}
	core, err := pipeline.New(cfg, nil)
	if err != nil {
		return err
	}
	init(core)
	p, err := replay.Compile(core, prog)
	if err != nil {
		// A schedule that does not compile makes the engine simulate;
		// there is no compile cost beyond the attempt.
		return nil
	}
	_, err = replay.CompileBatch(p)
	_ = err // a schedule without a batch form keeps the scalar replay path
	return nil
}

// ranker ranks the key hypotheses of one attacked byte as the attack
// package does: whole-trace ranking for a target without an attack
// window, otherwise the peak search restricted to the calibrated
// round-1 regions the window names, shifted by its delay.
func ranker(inst target.Instance, cal *pipeline.Result, spc int) func(b int, acc *sca.ClassCPA) *sca.Attack {
	type span struct {
		name         string
		round        int
		first, after int
	}
	var regions []span
	for _, reg := range inst.Regions() {
		first, last, ok := target.IssueCycleRange(cal, reg.Start, reg.End)
		if ok {
			regions = append(regions, span{reg.Name, reg.Round, int(first) * spc, int(last)*spc + spc})
		}
	}
	return func(b int, acc *sca.ClassCPA) *sca.Attack {
		w := inst.AttackWindow(b)
		if w == (target.Window{}) {
			return acc.Result()
		}
		lo, hi := -1, -1
		for _, r := range regions {
			if r.round != 1 || !strings.HasPrefix(r.name, w.Region) {
				continue
			}
			if lo < 0 || r.first < lo {
				lo = r.first
			}
			hi = max(hi, r.after)
		}
		if lo < 0 {
			return acc.Result()
		}
		if w.Delay > 0 {
			lo += w.Delay * spc
			hi += (w.Delay - 1) * spc
		}
		return acc.ResultIn(lo, hi, w.Signed)
	}
}

// fig3Leg is the traced fig3-10k operation; out is the untraced
// fig3Output, whose rank, confidence and correlation trace the leg must
// reproduce bit for bit.
func fig3Leg(tr *tracer, key []byte, opt attack.Fig3Options, out []byte) (int, error) {
	var want fig3Output
	if err := json.Unmarshal(out, &want); err != nil {
		return 0, err
	}
	got, err := attackLeg(tr, attackJob{name: "aes", key: key, opt: opt, bytes: []int{opt.KeyByte}, corr: true})
	if err != nil {
		return 0, err
	}
	if got.ranks[0] != want.Rank || !sameFloat(got.conf, want.Confidence) || !sameFloats(got.corr, want.CorrTrace) {
		return 0, fmt.Errorf("traced leg differs from the untraced run: rank %d vs %d, confidence %v vs %v",
			got.ranks[0], want.Rank, got.conf, want.Confidence)
	}
	return opt.Traces, nil
}

// attackScenarioLeg is the traced form of a fig3, fullkey or rankevo
// campaign scenario, with the options the campaign runner derives.
func attackScenarioLeg(tr *tracer, sc *campaign.Scenario, key [aes.KeySize]byte, out []byte) (int, error) {
	var want campaign.ScenarioResult
	if err := json.Unmarshal(out, &want); err != nil {
		return 0, err
	}
	job, err := scenarioAttack(sc, key)
	if err != nil {
		return 0, err
	}
	got, err := attackLeg(tr, job)
	if err != nil {
		return 0, err
	}
	var ok bool
	switch {
	case want.Fig3 != nil:
		ok = got.ranks[0] == want.Fig3.Rank && sameFloat(got.conf, want.Fig3.Confidence)
	case want.FullKey != nil:
		ok = slices.Equal(got.ranks, want.FullKey.Ranks)
	case want.RankEvo != nil:
		ok = slices.Equal(got.curve, want.RankEvo.Ranks)
	}
	if !ok {
		return 0, fmt.Errorf("%s: traced leg differs from the untraced run", sc.ID)
	}
	return want.Traces, nil
}

// scenarioAttack resolves a fig3-family scenario to its attack the way
// the campaign runner does: the ablation's core and model, the
// scenario's knobs over attack.DefaultFig3Options, and for a non-AES
// cipher its registry key and default round count.
func scenarioAttack(sc *campaign.Scenario, key [aes.KeySize]byte) (attackJob, error) {
	opt := attack.DefaultFig3Options()
	opt.Core = sc.Ablation.Core
	opt.Model = sc.Ablation.Model
	if sc.NoiseSigma != campaign.SigmaDefault {
		opt.Model.NoiseSigma = sc.NoiseSigma
	}
	opt.Seed = sc.Seed
	opt.Synth = sc.Synth
	if sc.Traces > 0 {
		opt.Traces = sc.Traces
	}
	if sc.Averages > 0 {
		opt.Averages = sc.Averages
	}
	if sc.KeyByte > 0 {
		opt.KeyByte = sc.KeyByte
	}
	if sc.Rounds > 0 {
		opt.Rounds = sc.Rounds
	}
	job := attackJob{name: target.Resolve(sc.Target), key: key[:], bytes: []int{opt.KeyByte}}
	if job.name != target.Default {
		tgt, err := target.Get(job.name)
		if err != nil {
			return attackJob{}, err
		}
		info := tgt.Info()
		if sc.Rounds == 0 {
			opt.Rounds = info.DefaultRounds
		}
		job.key = info.DefaultKey
	}
	switch sc.Kind {
	case campaign.KindFullKey:
		tgt, err := target.Get(job.name)
		if err != nil {
			return attackJob{}, err
		}
		job.bytes = make([]int, tgt.Info().AttackBytes)
		for b := range job.bytes {
			job.bytes[b] = b
		}
	case campaign.KindRankEvo:
		job.counts = sc.Counts
	}
	job.opt = opt
	return job, nil
}

// leakscanPadNops is the flush padding leakscan puts around each Table
// 2 sequence.
const leakscanPadNops = 12

// table2Leg is the traced form of one Table 2 row: the scan's program
// and calibration, engine.RunBatched with the scan's callbacks timed,
// and each expression's windowed peak recomputed from the leg's
// accumulator, which must equal the untraced row's bit for bit.
func table2Leg(tr *tracer, b *leakscan.Benchmark, opt leakscan.Options, out []byte) (int, error) {
	var want campaign.Table2Row
	if err := json.Unmarshal(out, &want); err != nil {
		return 0, err
	}
	var (
		prog *isa.Program
		err  error
	)
	tr.timeIn(lBuild, func() {
		nops := strings.Repeat("nop\n", leakscanPadNops)
		prog, err = isa.Assemble(nops + b.Seq + "\n" + nops)
	})
	if err != nil {
		return 0, err
	}
	var synth *engine.Synthesizer
	tr.timeIn(lCompile, func() {
		if synth, err = engine.NewSynthesizer(opt.Synth, opt.Core, prog); err != nil {
			return
		}
		err = compileSchedule(opt.Synth, opt.Core, prog, func(c *pipeline.Core) { b.Setup(rand.New(rand.NewSource(opt.Seed)), c) })
	})
	if err != nil {
		return 0, err
	}
	var cal *pipeline.Result
	tr.timeIn(lSimulate, func() {
		var core *pipeline.Core
		if core, err = pipeline.New(opt.Core, nil); err != nil {
			return
		}
		b.Setup(rand.New(rand.NewSource(opt.Seed^0x5ca1ab1e)), core)
		cal, err = core.Run(prog)
	})
	if err != nil {
		return 0, err
	}
	nSamples := len(cal.Timeline) * opt.Model.SamplesPerCycle

	n := opt.Traces
	clk := newLaneClock(n)
	keep := newCapture(n, 0, true)
	hyps := func(vals leakscan.Values, sm *engine.Sample) {
		for i, e := range b.Exprs {
			sm.Hyps[0][i] = e.Eval(vals)
		}
	}
	bg := engine.BatchGen{
		Synth: synth,
		Model: &opt.Model,
		Lanes: opt.Lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, sm *engine.Sample) error {
			t0 := clk.now()
			hyps(b.Setup(rng, core), sm)
			clk.prepStart[i], clk.prepEnd[i] = t0, clk.now()
			tr.prepares.Add(1)
			return nil
		},
		Verify: func(i int, _ *pipeline.Core, _ *engine.Sample) error {
			clk.postVM[i] = clk.now()
			return nil
		},
		Acquire: func(i int, rng *rand.Rand, cycles []float64, sm *engine.Sample) error {
			s := time.Now()
			sm.Trace, sm.Scratch = opt.Model.AveragedCyclesInto(sm.Trace, sm.Scratch, cycles, rng, opt.Averages)
			tr.add(lAveraged, time.Since(s))
			keep.keep(i, sm.Trace, nil, sm.Hyps[0])
			return nil
		},
		Scalar: func(i int, rng *rand.Rand, sm *engine.Sample) error {
			tr.scalars.Add(1)
			var vals leakscan.Values
			l := runLayer(synth)
			var use time.Duration
			s := time.Now()
			err := synth.Run(
				func(core *pipeline.Core) { vals = b.Setup(rng, core) },
				func(tl pipeline.Timeline, _ *pipeline.Core) error {
					u := time.Now()
					sm.Trace, sm.Scratch = opt.Model.SynthesizeAveragedInto(sm.Trace, sm.Scratch, tl, rng, opt.Averages)
					use = time.Since(u)
					return nil
				})
			tr.add(l, time.Since(s)-use)
			tr.add(lSynthesize, use)
			if err != nil {
				return err
			}
			hyps(vals, sm)
			keep.keep(i, sm.Trace, nil, sm.Hyps[0])
			return nil
		},
	}
	accs, err := engine.RunBatched(engine.Config{Workers: opt.Workers},
		engine.Spec{Traces: n, Samples: nSamples, Banks: engine.HypothesisBanks(len(b.Exprs)), Seed: opt.Seed}, bg)
	if err != nil {
		return 0, err
	}
	tr.add(lReplayBatch, clk.vmTime(nil))

	err = tr.isolated(lCPAAdd, func() error {
		acc, err := sca.NewCPA(len(b.Exprs), nSamples)
		if err != nil {
			return err
		}
		return keep.replay(n, func(k int) error { return acc.AddBatch(keep.traces[:k], keep.hyps[:k]) })
	})
	if err != nil {
		return 0, err
	}

	// The windowed peak search of leakscan.RunBenchmark, over the
	// calibration run's first issue cycle of each anchor.
	issue := map[int]int64{}
	for _, is := range cal.Issues {
		if _, ok := issue[is.PC]; !ok {
			issue[is.PC] = is.Cycle
		}
	}
	cpa := accs[0]
	spc := opt.Model.SamplesPerCycle
	s := time.Now()
	for i, e := range b.Exprs {
		base := int(issue[leakscanPadNops+e.Anchor])
		lo := max((base+e.OffLo)*spc, 0)
		hi := min((base+e.OffHi+1)*spc, nSamples)
		best := 0.0
		for smp := lo; smp < hi; smp++ {
			if r := cpa.Corr(i, smp); math.Abs(r) > math.Abs(best) {
				best = r
			}
		}
		if i >= len(want.Cells) || !sameFloat(best, want.Cells[i].Peak) {
			return 0, fmt.Errorf("table2 row %d: traced leg differs from the untraced run at %q", b.Row, e.Name)
		}
	}
	tr.add(lCorr, time.Since(s))
	tr.corrCalls.Add(1)
	return n, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameFloat)
}
