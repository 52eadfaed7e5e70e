package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/leakscan"
)

// defaultSeed is the committed seed: at it every operation's output
// must equal its committed artifact byte for byte. Any other seed n
// shifts every campaign seed by n-defaultSeed and seeds the Figure 3
// run with n; those outputs are held to the paper's verdicts instead.
const defaultSeed = 1

// fig3Traces is the trace count of the fig3-10k operation.
const fig3Traces = 10000

// op is one operation of a workload: an attack, a scan row or a
// campaign scenario.
type op struct {
	name string
	// traces is the acquisition count the operation requests.
	traces int
	// run executes the operation untraced and returns its result in
	// canonical bytes.
	run func() ([]byte, error)
	// check holds run's output to the committed artifact (at the
	// committed seed) or to the paper's verdicts (at any other seed).
	check func(out []byte) error
	// leg, when set, repeats the operation's work through the public
	// per-layer calls with every call timed, and checks that the result
	// is bit-equal to out, run's output. It returns the traces the
	// operation requests.
	leg func(tr *tracer, out []byte) (int, error)
}

// workloadNames lists the workloads in the order they are reported.
var workloadNames = []string{"fig3-10k", "table2", "short-attacks", "masked-cpa"}

// buildWorkload is the benchmark's set-up: it loads the committed
// campaign specs and artifacts the named workload draws on (relative to
// the repository root, the working directory) and enumerates its
// operations at the given seed.
func buildWorkload(name string, seed int64) ([]op, error) {
	shift := seed - defaultSeed
	committed := shift == 0
	var ops []op
	switch name {
	case "fig3-10k":
		golden, err := os.ReadFile(filepath.Join("perfbench", "golden", "fig3-10k.sha256"))
		if err != nil {
			return nil, fmt.Errorf("golden digest: %w", err)
		}
		ops = []op{fig3Op(seed, committed, strings.TrimSpace(string(golden)))}
	case "table2":
		c, err := loadCampaign("paper", shift)
		if err != nil {
			return nil, err
		}
		sc, ok := c.byID("table2/ablation=paper")
		if !ok {
			return nil, fmt.Errorf("paper campaign has no table2/ablation=paper scenario")
		}
		if ops, err = table2Ops(sc, c.golden[sc.ID], committed); err != nil {
			return nil, err
		}
	case "short-attacks":
		for _, spec := range []string{"paper", "multicipher"} {
			c, err := loadCampaign(spec, shift)
			if err != nil {
				return nil, err
			}
			for i := range c.scenarios {
				switch c.scenarios[i].Kind {
				case campaign.KindFig3, campaign.KindFullKey, campaign.KindRankEvo:
					o, err := c.scenarioOp(&c.scenarios[i], committed)
					if err != nil {
						return nil, err
					}
					ops = append(ops, o)
				}
			}
		}
	case "masked-cpa":
		c, err := loadCampaign("countermeasures", shift)
		if err != nil {
			return nil, err
		}
		for i := range c.scenarios {
			o, err := c.scenarioOp(&c.scenarios[i], committed)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return ops, nil
}

// fig3Options is the ROADMAP's unit of work: a 10,000-trace Figure 3
// CPA on one-round AES, one execution per trace, default lanes.
func fig3Options(seed int64) attack.Fig3Options {
	opt := attack.DefaultFig3Options()
	opt.Traces = fig3Traces
	opt.Rounds = 1
	opt.Averages = 1
	opt.Seed = seed
	return opt
}

// fig3Output is the canonical, scheduling-independent part of a Figure
// 3 result: the golden digest covers exactly these fields.
type fig3Output struct {
	TrueKey    byte                  `json:"true_key"`
	Recovered  byte                  `json:"recovered"`
	Rank       int                   `json:"rank"`
	Confidence float64               `json:"confidence"`
	CorrTrace  []float64             `json:"corr_trace"`
	Regions    []attack.RegionWindow `json:"regions"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fig3Op(seed int64, committed bool, golden string) op {
	opt := fig3Options(seed)
	key := attack.DefaultKey
	return op{
		name:   "fig3/aes/traces=10000/rounds=1/avg=1",
		traces: opt.Traces,
		run: func() ([]byte, error) {
			res, err := attack.RunCPA("aes", key[:], opt)
			if err != nil {
				return nil, err
			}
			return json.Marshal(fig3Output{res.TrueKey, res.Recovered, res.Rank, res.Confidence, res.CorrTrace, res.Regions})
		},
		check: func(out []byte) error {
			if committed {
				if got := digest(out); got != golden {
					return fmt.Errorf("result digest %s, committed %s", got, golden)
				}
				return nil
			}
			var r fig3Output
			if err := json.Unmarshal(out, &r); err != nil {
				return err
			}
			if r.Rank != 0 {
				return fmt.Errorf("true key ranked %d, the paper recovers it (rank 0)", r.Rank)
			}
			return nil
		},
		leg: func(tr *tracer, out []byte) (int, error) { return fig3Leg(tr, key[:], opt, out) },
	}
}

// campaignSet is one committed campaign: its spec (seed shifted), the
// enumerated scenarios and the committed result of each scenario in
// canonical (compact) JSON.
type campaignSet struct {
	spec      *campaign.Spec
	key       [aes.KeySize]byte
	scenarios []campaign.Scenario
	golden    map[string][]byte
}

func loadCampaign(name string, shift int64) (*campaignSet, error) {
	spec, err := campaign.LoadSpec(filepath.Join("campaigns", name+".json"))
	if err != nil {
		return nil, err
	}
	spec.Seed += shift
	key, err := spec.AttackKey()
	if err != nil {
		return nil, err
	}
	scs, err := spec.Enumerate()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join("campaigns", name+".results.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s results: %w", name, err)
	}
	golden := map[string][]byte{}
	for _, s := range doc.Scenarios {
		var id struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(s, &id); err != nil {
			return nil, fmt.Errorf("%s results: %w", name, err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, s); err != nil {
			return nil, fmt.Errorf("%s results: %w", name, err)
		}
		golden[id.ID] = buf.Bytes()
	}
	return &campaignSet{spec: spec, key: key, scenarios: scs, golden: golden}, nil
}

func (c *campaignSet) byID(id string) (*campaign.Scenario, bool) {
	for i := range c.scenarios {
		if c.scenarios[i].ID == id {
			return &c.scenarios[i], true
		}
	}
	return nil, false
}

// scenarioOp makes one campaign scenario an operation, executed exactly
// as the campaign runner does (one scenario at a time, engine workers
// one per core, default lanes).
func (c *campaignSet) scenarioOp(sc *campaign.Scenario, committed bool) (op, error) {
	raw, ok := c.golden[sc.ID]
	if !ok {
		return op{}, fmt.Errorf("campaign %s: no committed result for %s", c.spec.Name, sc.ID)
	}
	var want campaign.ScenarioResult
	if err := json.Unmarshal(raw, &want); err != nil {
		return op{}, fmt.Errorf("campaign %s: %s: %w", c.spec.Name, sc.ID, err)
	}
	traces := want.Traces
	if want.TVLA != nil {
		traces *= len(want.TVLA.Rows)
	}
	key := c.key
	o := op{
		name:   sc.ID,
		traces: traces,
		run: func() ([]byte, error) {
			sr, err := campaign.Execute(sc, key, 0, 0)
			if err != nil {
				return nil, err
			}
			return json.Marshal(sr)
		},
		check: func(out []byte) error {
			if committed {
				return sameBytes(out, raw)
			}
			return checkScenarioShape(out, sc, &want)
		},
	}
	switch sc.Kind {
	case campaign.KindFig3, campaign.KindFullKey, campaign.KindRankEvo:
		o.leg = func(tr *tracer, out []byte) (int, error) { return attackScenarioLeg(tr, sc, key, out) }
	case campaign.KindMaskCPA:
		o.leg = func(tr *tracer, out []byte) (int, error) { return maskLeg(tr, sc, key, out) }
	}
	return o, nil
}

// sameBytes is the committed-artifact check: got must equal want byte
// for byte. The error names the first differing offset.
func sameBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Errorf("output differs from the committed artifact at byte %d: got ...%s..., want ...%s...",
		i, excerpt(got, lo, i+40), excerpt(want, lo, i+40))
}

func excerpt(b []byte, lo, hi int) string {
	return string(b[min(lo, len(b)):min(hi, len(b))])
}

// checkScenarioShape is the check at a non-committed seed, where the
// paper states no verdict for single scenarios: the result must decode
// as a well-formed payload of its kind, keep the scenario's identity
// and acquisition axes, and report ranks a CPA can produce.
func checkScenarioShape(out []byte, sc *campaign.Scenario, want *campaign.ScenarioResult) error {
	res, err := campaign.DecodeResults([]byte(`{"scenarios":[` + string(out) + `]}`))
	if err != nil {
		return err
	}
	got := &res.Scenarios[0]
	if got.ID != want.ID || got.Kind != want.Kind || got.Ablation != want.Ablation || got.Target != want.Target ||
		got.Traces != want.Traces || got.Averages != want.Averages || got.NoiseSigma != want.NoiseSigma ||
		got.Synth != want.Synth || got.Seed != sc.Seed {
		return fmt.Errorf("scenario identity changed: got %s seed %d traces %d, want %s seed %d traces %d",
			got.ID, got.Seed, got.Traces, want.ID, sc.Seed, want.Traces)
	}
	var ranks []int
	switch {
	case got.Fig3 != nil:
		ranks = []int{got.Fig3.Rank}
	case got.FullKey != nil:
		ranks = got.FullKey.Ranks
	case got.RankEvo != nil:
		ranks = got.RankEvo.Ranks
	case got.MaskCPA != nil:
		ranks = []int{got.MaskCPA.Rank}
	}
	for _, r := range ranks {
		if r < 0 || r > 255 {
			return fmt.Errorf("rank %d out of [0,255]", r)
		}
	}
	return nil
}

// table2Ops makes each row of the Table 2 leakage scan one operation,
// run with the options the campaign runner gives the scenario.
func table2Ops(sc *campaign.Scenario, golden []byte, committed bool) ([]op, error) {
	var want struct {
		Table2 struct {
			Rows []json.RawMessage `json:"rows"`
		} `json:"table2"`
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		return nil, err
	}
	opt := leakscan.DefaultOptions()
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
	if sc.Confidence > 0 {
		opt.Confidence = sc.Confidence
	}
	rows := sc.Rows
	if len(rows) == 0 {
		rows = []int{1, 2, 3, 4, 5, 6, 7}
	}
	if len(rows) != len(want.Table2.Rows) {
		return nil, fmt.Errorf("table2: %d rows committed, %d scanned", len(want.Table2.Rows), len(rows))
	}
	var ops []op
	for k, row := range rows {
		b, ok := leakscan.BenchmarkByRow(row)
		if !ok {
			return nil, fmt.Errorf("no Table 2 row %d", row)
		}
		var wantRow bytes.Buffer
		if err := json.Compact(&wantRow, want.Table2.Rows[k]); err != nil {
			return nil, err
		}
		var wr campaign.Table2Row
		if err := json.Unmarshal(wantRow.Bytes(), &wr); err != nil {
			return nil, err
		}
		ops = append(ops, op{
			name:   fmt.Sprintf("table2/row=%d", row),
			traces: opt.Traces,
			run: func() ([]byte, error) {
				br, err := leakscan.RunBenchmark(&b, opt)
				if err != nil {
					return nil, err
				}
				return json.Marshal(table2Row(br))
			},
			check: func(out []byte) error {
				if committed {
					return sameBytes(out, wantRow.Bytes())
				}
				var r campaign.Table2Row
				if err := json.Unmarshal(out, &r); err != nil {
					return err
				}
				return checkRowVerdicts(&r, &wr)
			},
			leg: func(tr *tracer, out []byte) (int, error) { return table2Leg(tr, &b, opt, out) },
		})
	}
	return ops, nil
}

// table2Row is the campaign's serialized form of one scanned row.
func table2Row(br *leakscan.BenchResult) campaign.Table2Row {
	rr := campaign.Table2Row{Row: br.Row, Name: br.Name, Dual: br.Dual, DualExpected: br.DualExpected}
	for _, e := range br.Exprs {
		rr.Cells = append(rr.Cells, campaign.Table2Cell{
			Column:     string(e.Column),
			Expr:       e.Name,
			Scored:     e.Scored,
			Expected:   e.Expected.Leaks(),
			Border:     e.Expected == leakscan.Border,
			Detected:   e.Detected,
			Match:      e.Match,
			Peak:       e.Peak,
			Confidence: e.Confidence,
		})
	}
	return rr
}

// maxFalsePositives is how many scored cells of one Table 2 row the
// paper marks as not leaking may still test as leaking at a
// non-committed seed. Each such cell is tested at the scan's 0.995
// confidence, so at some seeds one fires by chance: at campaign seeds
// 17 and 18 one null cell of rows 2 and 4 does (Register File rB,
// Is/Ex Buffer rB^rF), which makes "same agreement count as committed"
// fail on roughly one seed in ten while the scan behaves as specified.
const maxFalsePositives = 1

// checkRowVerdicts is a Table 2 row's check at a non-committed seed,
// against the committed row: the same cells, the same dual-issue
// verdict, every scored cell the paper marks as leaking detected (the
// detection margin leakscan.DefaultOptions promises at any seed), and
// at most maxFalsePositives scored cells it marks as not leaking
// detected.
func checkRowVerdicts(got, want *campaign.Table2Row) error {
	if got.Row != want.Row || got.Dual != got.DualExpected || len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("row %d: dual issue %v (paper %v), %d cells (committed %d)",
			got.Row, got.Dual, got.DualExpected, len(got.Cells), len(want.Cells))
	}
	fp := 0
	for i, c := range got.Cells {
		w := want.Cells[i]
		if c.Column != w.Column || c.Expr != w.Expr || c.Scored != w.Scored || c.Expected != w.Expected {
			return fmt.Errorf("row %d cell %d is %s %s, committed %s %s", got.Row, i, c.Column, c.Expr, w.Column, w.Expr)
		}
		switch {
		case !c.Scored:
		case c.Expected && !c.Detected:
			return fmt.Errorf("row %d: %s %s leaks in the paper but was not detected (r=%.4f)", got.Row, c.Column, c.Expr, c.Peak)
		case !c.Expected && c.Detected:
			fp++
		}
	}
	if fp > maxFalsePositives {
		return fmt.Errorf("row %d: %d cells the paper marks as not leaking were detected, at most %d allowed",
			got.Row, fp, maxFalsePositives)
	}
	return nil
}
