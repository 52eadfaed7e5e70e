package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/aes"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/masking"
	"repro/internal/pipeline"
	"repro/internal/sca"
)

// The traced form of a maskcpa scenario: masking.EvaluateKeyedCPA's
// per-trace generator replicated on the benchmark's side of
// engine.Run's scalar Generate seam, so its simulation and full-timeline
// synthesis calls can be timed. The replica's gadget programs and draw
// order follow internal/masking/keyed.go; the leg's bit-equality check
// against the untraced scenario result fails loudly if they drift.

// Keyed gadget layout constants of internal/masking.
const (
	keyedPad       = 8 // flush nops around each gadget
	keyedJitter    = 4 // equally likely jitter positions
	keyedTableAddr = 0x2000
	keyedOutAddr   = 0x3000
)

// keyedPrograms assembles every (jitter, operand-swap) variant of a
// keyed gadget schedule, indexed [jitter][swap], and returns the number
// of swap variants.
func keyedPrograms(schedule string, ctr masking.Countermeasure) ([keyedJitter][]*isa.Program, int, error) {
	var progs [keyedJitter][]*isa.Program
	swaps := 1
	if ctr.Shuffle {
		swaps = 4
	}
	nops := func(n int) string { return strings.Repeat("nop\n", n) }
	eor := func(rd, ra, rb string, swap bool) string {
		if swap {
			ra, rb = rb, ra
		}
		return "eor " + rd + ", " + ra + ", " + rb + "\n"
	}
	for jd := range progs {
		pre, post := keyedPad+2*jd, keyedPad+2*(keyedJitter-1-jd)
		for sw := 0; sw < swaps; sw++ {
			var (
				p   *isa.Program
				err error
			)
			switch schedule {
			case masking.ScheduleNaive:
				p, err = isa.Assemble(nops(pre) + eor("r4", "r0", "r2", sw&1 != 0) + eor("r5", "r1", "r3", sw&2 != 0) + nops(post))
			case masking.ScheduleSeparated:
				p, err = isa.Assemble(nops(pre) + eor("r4", "r0", "r2", sw&1 != 0) +
					"add r6, r7, r8\nadd r9, r7, r8\n" + eor("r5", "r1", "r3", sw&2 != 0) + nops(post))
			case masking.ScheduleDualIssue:
				p, err = isa.Assemble(nops(pre) + "eor r4, r0, #0x5A5A5A5A\neor r5, r1, #0xA5A5A5A5\n" + nops(post))
			case masking.ScheduleSbox:
				b := isa.NewBuilder()
				b.Nop(pre)
				b.LdrbReg(isa.R4, isa.R2, isa.R0)
				b.Strb(isa.R4, isa.R3, 0)
				b.Nop(2)
				b.Mov(isa.R6, isa.R5)
				b.Nop(post)
				p, err = b.Build()
			default:
				err = fmt.Errorf("unknown keyed schedule %q", schedule)
			}
			if err != nil {
				return progs, 0, err
			}
			progs[jd] = append(progs[jd], p)
		}
	}
	return progs, swaps, nil
}

// maskLeg is the traced form of a maskcpa scenario, with the options
// the campaign runner derives; out is the untraced scenario result.
func maskLeg(tr *tracer, sc *campaign.Scenario, key [aes.KeySize]byte, out []byte) (int, error) {
	var want campaign.ScenarioResult
	if err := json.Unmarshal(out, &want); err != nil {
		return 0, err
	}
	ctr, err := masking.ParseCountermeasure(sc.Ctr)
	if err != nil {
		return 0, err
	}
	opt := masking.DefaultKeyedOptions()
	opt.Core = sc.Ablation.Core
	opt.Model = sc.Ablation.Model
	if sc.NoiseSigma != campaign.SigmaDefault {
		opt.Model.NoiseSigma = sc.NoiseSigma
	}
	if sc.Traces > 0 {
		opt.Traces = sc.Traces
	}
	if sc.Averages > 0 {
		opt.Averages = sc.Averages
	}
	avg := opt.Averages
	if avg <= 0 {
		avg = 16
	}
	keyByte := key[sc.KeyByte]

	var (
		progs [keyedJitter][]*isa.Program
		swaps int
	)
	tr.timeIn(lBuild, func() { progs, swaps, err = keyedPrograms(sc.Gadget, ctr) })
	if err != nil {
		return 0, err
	}
	nCycles := -1
	for jd := range progs {
		for _, p := range progs[jd] {
			var res *pipeline.Result
			tr.timeIn(lSimulate, func() {
				var c *pipeline.Core
				if c, err = pipeline.New(opt.Core, nil); err == nil {
					res, err = c.Run(p)
				}
			})
			if err != nil {
				return 0, err
			}
			if nCycles < 0 {
				nCycles = len(res.Timeline)
			}
		}
	}
	nSamples := nCycles * opt.Model.SamplesPerCycle
	table := make([][]float64, 256)
	for pt := range table {
		table[pt] = make([]float64, 256)
		for h := range table[pt] {
			table[pt][h] = float64(sca.HW8(aes.Sbox[byte(pt)^byte(h)]))
		}
	}

	n := opt.Traces
	keep := newCapture(n, 1, false)
	gen := func(i int, rng *rand.Rand, s *engine.Sample) error {
		tr.scalars.Add(1)
		pt := byte(rng.Intn(256))
		sw, jd := 0, 0
		if ctr.Shuffle {
			sw = rng.Intn(swaps)
		}
		if ctr.Jitter {
			jd = rng.Intn(keyedJitter)
		}
		v := aes.Sbox[pt^keyByte]
		c, err := pipeline.New(opt.Core, nil)
		if err != nil {
			return err
		}
		if sc.Gadget == masking.ScheduleSbox {
			var ms *masking.MaskedSbox
			if ctr.Mask {
				ms = masking.NewMaskedSbox(rng)
			} else {
				ms = &masking.MaskedSbox{}
				copy(ms.Table[:], aes.Sbox[:])
			}
			c.Mem().WriteBytes(keyedTableAddr, ms.Table[:])
			c.SetReg(isa.R0, uint32((pt^keyByte)^ms.MIn))
			c.SetReg(isa.R2, keyedTableAddr)
			c.SetReg(isa.R3, keyedOutAddr)
			c.SetReg(isa.R5, uint32(ms.MOut))
		} else {
			var s0, s1, mA, mB byte
			if ctr.Mask {
				s0 = byte(rng.Intn(256))
				s1 = v ^ s0
				mA = byte(rng.Intn(256))
				mB = byte(rng.Intn(256))
			} else {
				s0 = v
			}
			c.SetRegs(uint32(s0), uint32(s1), uint32(mA), uint32(mB))
		}
		var res *pipeline.Result
		tr.timeIn(lSimulate, func() { res, err = c.Run(progs[jd][sw]) })
		if err != nil {
			return err
		}
		tr.timeIn(lSynthesize, func() {
			s.Trace, s.Scratch = opt.Model.SynthesizeAveragedInto(s.Trace, s.Scratch, res.Timeline, rng, avg)
		})
		s.Class[0] = int(pt)
		keep.keep(i, s.Trace, s.Class, nil)
		return nil
	}
	spec := engine.Spec{Traces: n, Samples: nSamples, Seed: sc.Seed, Banks: []engine.Bank{{Hyps: 256, Classes: table}}}
	accs, err := engine.Run(engine.Config{}, spec, gen)
	if err != nil {
		return 0, err
	}
	err = tr.isolated(lClassAdd, func() error {
		acc, err := sca.NewClassCPA(nSamples, table)
		if err != nil {
			return err
		}
		return keep.replay(n, func(k int) error { return acc.AddBatch(keep.classes[0][:k], keep.traces[:k]) })
	})
	if err != nil {
		return 0, err
	}
	acc := accs[0]
	if sc.Order == 2 {
		means := accs[0].(*sca.ClassCPA).MeanTrace()
		spec.Banks = []engine.Bank{{Hyps: 256, Classes: table, Order2: &engine.Order2{Means: means}}}
		keep = newCapture(n, 1, false)
		accs2, err := engine.Run(engine.Config{}, spec, gen)
		if err != nil {
			return 0, err
		}
		acc = accs2[0]
		err = tr.isolated(lClass2Add, func() error {
			acc2, err := sca.NewClassCPA2(nSamples, table, means, 0, 0)
			if err != nil {
				return err
			}
			return keep.replay(n, func(k int) error { return acc2.AddBatch(keep.classes[0][:k], keep.traces[:k]) })
		})
		if err != nil {
			return 0, err
		}
	}
	s := time.Now()
	att := acc.Result()
	tr.add(lCorr, time.Since(s))
	tr.corrCalls.Add(1)
	best, bestCorr := att.Best()
	m := want.MaskCPA
	if m == nil || att.RankOf(int(keyByte)) != m.Rank || fmt.Sprintf("%#02x", best) != m.Recovered ||
		!sameFloat(bestCorr, m.BestCorr) || !sameFloat(att.Peaks[keyByte], m.TrueCorr) ||
		!sameFloat(att.DistinguishConfidence(), m.Confidence) {
		return 0, fmt.Errorf("%s: traced leg differs from the untraced run", sc.ID)
	}
	return n, nil
}
