package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/replay"
)

// Mode selects how a Synthesizer turns program executions into
// component timelines.
type Mode uint8

const (
	// ModeAuto compiles a replay program on first use, bit-compares
	// replayed output against full simulation for the first VerifyRuns
	// executions, and falls back to pure simulation on any mismatch —
	// including compile failures and mid-run divergence. The default.
	ModeAuto Mode = iota
	// ModeReplay always replays after the compiling reference run and
	// treats any detected divergence as a hard error. It asserts that
	// the program's schedule is input-invariant; prefer ModeAuto unless
	// that is known.
	ModeReplay
	// ModeSimulate always runs the full cycle-level simulator.
	ModeSimulate
)

// ParseMode parses the command-line spelling of a mode: "auto",
// "replay" or "simulate".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "replay":
		return ModeReplay, nil
	case "simulate":
		return ModeSimulate, nil
	}
	return ModeAuto, fmt.Errorf("engine: unknown synthesis mode %q (want auto, replay or simulate)", s)
}

// String returns the mode's command-line spelling.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeReplay:
		return "replay"
	case ModeSimulate:
		return "simulate"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// VerifyRuns is the number of leading executions an auto-mode
// Synthesizer dual-runs — replay and simulator, bit-comparing the
// timelines — before trusting the compiled schedule: one default
// engine chunk.
const VerifyRuns = DefaultChunkSize

// Synthesizer is the trace-synthesis seam between the attack layers and
// the pipeline model: one fixed (configuration, program) pair, executed
// once per acquisition against per-run initial state. Depending on the
// mode it runs the cycle-level simulator, a compiled replay of its
// schedule, or — the auto default — replay guarded by a leading
// bit-compare window with graceful fallback to simulation.
//
// A Synthesizer is safe for concurrent use: each call borrows pooled
// per-worker scratch (cores, memory images, a replay VM), so steady-
// state synthesis allocates nothing. Results are bit-identical across
// modes whenever the program's schedule is input-invariant; when it is
// not, auto mode degrades to the simulator's output.
type Synthesizer struct {
	mode Mode
	cfg  pipeline.Config
	prog *isa.Program

	compiled   atomic.Pointer[replay.Program]
	mu         sync.Mutex // guards compilation and fallback bookkeeping
	compileErr error
	tried      bool
	fellBack   atomic.Bool
	reason     string
	verified   atomic.Int64

	// Lane-parallel batch state (see batch.go): the lowered schedule,
	// its one-shot compile bookkeeping (under mu), how many batches ran,
	// and the per-worker scratch pool of lane cores + batch VM.
	batchProg  atomic.Pointer[replay.BatchProgram]
	batchTried bool
	batchErr   error
	batchRuns  atomic.Int64
	batchPool  sync.Pool
	// verifying counts dual-run verifications in flight. The unverified
	// fast path stays closed until the window's successes are complete
	// AND no verification is still pending — otherwise a late mismatch
	// could land after concurrent runs already emitted unverified
	// replay output, breaking the bit-identical-to-simulation fallback
	// contract.
	verifying atomic.Int64

	scratch sync.Pool
}

// synthScratch is one worker's pooled state: the primary core carries
// the per-run initial state and runs whichever engine owns the trace;
// the aux core holds the copied state replay verifies against, and
// doubles as the pre-replay snapshot that makes mid-run divergence
// recoverable.
type synthScratch struct {
	core *pipeline.Core
	aux  *pipeline.Core
	vm   *replay.VM
}

// NewSynthesizer returns a Synthesizer for the given mode, core
// configuration and program.
func NewSynthesizer(mode Mode, cfg pipeline.Config, prog *isa.Program) (*Synthesizer, error) {
	if mode > ModeSimulate {
		return nil, fmt.Errorf("engine: invalid synthesis mode %d", mode)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s := &Synthesizer{mode: mode, cfg: cfg, prog: prog}
	s.scratch.New = func() any {
		core := pipeline.MustNew(cfg, nil)
		core.SetReuseBuffers(true)
		aux := pipeline.MustNew(cfg, nil)
		aux.SetReuseBuffers(true)
		return &synthScratch{core: core, aux: aux}
	}
	s.batchPool.New = func() any { return &batchScratch{} }
	return s, nil
}

// Mode returns the configured mode.
func (s *Synthesizer) Mode() Mode { return s.mode }

// FellBack reports whether an auto-mode Synthesizer abandoned replay.
func (s *Synthesizer) FellBack() bool { return s.fellBack.Load() }

// FallbackReason returns why replay was abandoned, "" while it is live.
func (s *Synthesizer) FallbackReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fellBack.Load() {
		return ""
	}
	return s.reason
}

func (s *Synthesizer) fallBack(reason string) {
	s.mu.Lock()
	if !s.fellBack.Load() {
		s.reason = reason
		s.fellBack.Store(true)
	}
	s.mu.Unlock()
}

// Run executes the program once. init establishes the run's initial
// architectural state — registers, memory contents, optionally a cache
// hierarchy — on a freshly wiped core, and is called exactly once. use
// receives the run's timeline together with the core holding the final
// architectural state; both are only valid for the duration of the
// call. Run is safe to call concurrently with itself.
func (s *Synthesizer) Run(init func(*pipeline.Core), use func(pipeline.Timeline, *pipeline.Core) error) error {
	return s.run(func(core *pipeline.Core) error { init(core); return nil }, use)
}

// run is Run with a fallible init: an init error is returned before the
// program executes, so a failed setup neither compiles nor verifies.
func (s *Synthesizer) run(init func(*pipeline.Core) error, use func(pipeline.Timeline, *pipeline.Core) error) error {
	sc := s.scratch.Get().(*synthScratch)
	defer s.scratch.Put(sc)
	core := sc.core
	core.ResetState()
	core.SetHierarchy(nil)
	core.Mem().Wipe()
	if err := init(core); err != nil {
		return err
	}

	if s.mode == ModeSimulate || s.fellBack.Load() {
		return s.simulate(core, use)
	}
	p := s.compiled.Load()
	if p == nil {
		var err error
		if p, err = s.compile(sc, core); err != nil {
			if s.mode == ModeReplay {
				return err
			}
			s.fallBack("compile: " + err.Error())
			return s.simulate(core, use)
		}
	}
	if sc.vm == nil {
		sc.vm = replay.NewVM(p)
	}

	if s.mode == ModeAuto && (s.verified.Load() < VerifyRuns || s.verifying.Load() > 0) {
		return s.verifyRun(sc, use)
	}

	if s.mode == ModeAuto {
		// Snapshot the initial state so that a divergence detected
		// mid-replay can restart the run under the real simulator.
		copyState(sc.aux, core)
	}
	tl, err := sc.vm.Run(core)
	if err != nil {
		if s.mode == ModeReplay {
			return err
		}
		s.fallBack(err.Error())
		copyState(core, sc.aux)
		return s.simulate(core, use)
	}
	return use(tl, core)
}

// verifyLeft returns how many leading executions the auto-mode
// verification window still needs before its verdict: 0 once the window
// passed or replay fell back, outside auto mode, and for a nil
// Synthesizer. The engine's scheduler runs that many traces as a
// barrier prefix (see runChunked).
func (s *Synthesizer) verifyLeft() int {
	if s == nil || s.mode != ModeAuto || s.fellBack.Load() {
		return 0
	}
	return max(VerifyRuns-int(s.verified.Load()), 0)
}

// simulate runs the full cycle-level simulator on core.
func (s *Synthesizer) simulate(core *pipeline.Core, use func(pipeline.Timeline, *pipeline.Core) error) error {
	res, err := core.Run(s.prog)
	if err != nil {
		return err
	}
	return use(res.Timeline, core)
}

// compile builds the replay program from one reference run, executed on
// the aux core against a copy of this run's initial state so the
// primary core stays pristine for the verification run that follows.
// Only one caller compiles; losers of the race reuse its result.
func (s *Synthesizer) compile(sc *synthScratch, core *pipeline.Core) (*replay.Program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.compiled.Load(); p != nil {
		return p, nil
	}
	if s.tried {
		return nil, s.compileErr
	}
	s.tried = true
	copyState(sc.aux, core)
	p, err := replay.Compile(sc.aux, s.prog)
	if err != nil {
		s.compileErr = err
		return nil, err
	}
	s.compiled.Store(p)
	return p, nil
}

// verifyRun is one dual execution of the auto mode's leading window:
// the simulator runs on the primary core — with whatever hierarchy init
// attached — and stays authoritative, while the VM replays a copy of
// the initial state on the aux core. Any difference between the two
// timelines or final states abandons replay for good. The in-flight
// counter is released only after the verdict is recorded, so the fast
// path cannot open while a failure may still be pending; concurrent
// callers simply verify a few extra runs.
func (s *Synthesizer) verifyRun(sc *synthScratch, use func(pipeline.Timeline, *pipeline.Core) error) error {
	s.verifying.Add(1)
	defer s.verifying.Add(-1)
	copyState(sc.aux, sc.core)
	rtl, rerr := sc.vm.Run(sc.aux)
	res, serr := sc.core.Run(s.prog)
	if serr != nil {
		return serr
	}
	switch {
	case rerr != nil:
		s.fallBack(rerr.Error())
	case !timelinesEqual(res.Timeline, rtl):
		s.fallBack("replayed timeline differs from full simulation")
	case sc.aux.State().Regs != sc.core.State().Regs || sc.aux.State().Flags != sc.core.State().Flags:
		s.fallBack("replayed architectural state differs from full simulation")
	default:
		s.verified.Add(1)
	}
	return use(res.Timeline, sc.core)
}

// copyState makes dst's architectural state (registers, flags, memory)
// identical to src's, reusing dst's storage. Timing state — the cache
// hierarchy — is deliberately not copied: replay never consults it, and
// the verification window compares against the simulator that does.
func copyState(dst, src *pipeline.Core) {
	ds, ss := dst.State(), src.State()
	ds.Regs = ss.Regs
	ds.Flags = ss.Flags
	ds.Mem.CopyFrom(ss.Mem)
}

// timelinesEqual reports bit-identity of two timelines: same length and
// per-cycle identical driven masks and component values.
func timelinesEqual(a, b pipeline.Timeline) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
