package main

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/leakscan"
)

// Each traced leg must reproduce its untraced operation bit for bit,
// and reject an untraced result it does not reproduce. The engine calls
// the legs' seams from several workers at once, so run these under the
// race detector too.

func TestFig3LegMatchesUntraced(t *testing.T) {
	opt := fig3Options(3)
	opt.Traces = 600
	key := attack.DefaultKey
	res, err := attack.RunCPA("aes", key[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(fig3Output{res.TrueKey, res.Recovered, res.Rank, res.Confidence, res.CorrTrace, res.Regions})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	n, err := fig3Leg(tr, key[:], opt, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != opt.Traces || tr.prepares.Load()+tr.scalars.Load() != int64(opt.Traces) {
		t.Errorf("leg covered %d traces (%d batch, %d scalar), want %d", n, tr.prepares.Load(), tr.scalars.Load(), opt.Traces)
	}
	if tr.ns[lZnorm].Load() == 0 && tr.prepares.Load() > 0 {
		t.Error("batch path ran but no noise draw was timed")
	}
	res.CorrTrace[len(res.CorrTrace)/2] += 1e-9
	bad, err := json.Marshal(fig3Output{res.TrueKey, res.Recovered, res.Rank, res.Confidence, res.CorrTrace, res.Regions})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fig3Leg(&tracer{}, key[:], opt, bad); err == nil {
		t.Error("leg accepted an untraced result it does not reproduce")
	}
}

func TestTable2LegMatchesUntraced(t *testing.T) {
	b, ok := leakscan.BenchmarkByRow(1)
	if !ok {
		t.Fatal("no Table 2 row 1")
	}
	opt := leakscan.DefaultOptions()
	opt.Traces = 1000
	br, err := leakscan.RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(table2Row(br))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table2Leg(&tracer{}, &b, opt, out); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioLegsMatchUntraced(t *testing.T) {
	for _, tc := range []struct {
		spec, kind string
		traces     int
	}{
		{"multicipher", "fullkey", 0},
		{"paper", "rankevo", 0},
		{"countermeasures", "maskcpa", 300},
	} {
		spec, err := campaign.LoadSpec(filepath.Join("..", "campaigns", tc.spec+".json"))
		if err != nil {
			t.Fatal(err)
		}
		scs, err := spec.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		key, err := spec.AttackKey()
		if err != nil {
			t.Fatal(err)
		}
		for i := range scs {
			sc := scs[i]
			if string(sc.Kind) != tc.kind {
				continue
			}
			if tc.traces > 0 {
				sc.Traces = tc.traces
			}
			sr, err := campaign.Execute(&sc, key, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(sr)
			if err != nil {
				t.Fatal(err)
			}
			leg := attackScenarioLeg
			if sc.Kind == campaign.KindMaskCPA {
				leg = maskLeg
			}
			if _, err := leg(&tracer{}, &sc, key, out); err != nil {
				t.Errorf("%s: %v", sc.ID, err)
			}
			break
		}
	}
}
