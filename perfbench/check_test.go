package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// The committed-artifact check must reject an output that differs from
// the artifact in a single byte, wherever the byte is.
func TestSameBytesRejectsOneFlippedByte(t *testing.T) {
	want := []byte(`{"id":"fig3/ablation=paper/traces=800/rounds=1","rank":0,"confidence":0.99}`)
	if err := sameBytes(append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	for i := range want {
		got := append([]byte(nil), want...)
		got[i] ^= 0x01
		if sameBytes(got, want) == nil {
			t.Fatalf("output with byte %d flipped accepted", i)
		}
	}
	if sameBytes(want[:len(want)-1], want) == nil {
		t.Fatal("truncated output accepted")
	}
}

// A committed campaign result with one byte flipped must fail the check
// of its scenario operation, as must a fig3-10k output whose digest
// does not match the golden one.
func TestOperationChecksRejectFlippedByte(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	// The workloads read the committed artifacts relative to the
	// repository root, the benchmark's working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	ops, err := buildWorkload("short-attacks", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadCampaign("paper", 0)
	if err != nil {
		t.Fatal(err)
	}
	o := ops[0]
	good := c.golden[o.name]
	if err := o.check(good); err != nil {
		t.Fatalf("committed result rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	i := strings.Index(string(bad), `"rank":`) + len(`"rank":`)
	bad[i] ^= 0x01
	if o.check(bad) == nil {
		t.Fatalf("result with byte %d flipped accepted", i)
	}

	fig3, err := buildWorkload("fig3-10k", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(fig3Output{TrueKey: 0x2b, Recovered: 0x2b, CorrTrace: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if fig3[0].check(out) == nil {
		t.Fatal("fig3-10k output with a wrong digest accepted")
	}
}

// At a non-committed seed the scenario check falls back to the result's
// shape: a result whose identity axes changed is rejected.
func TestShapeCheckRejectsChangedIdentity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "campaigns", "paper.results.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.DecodeResults(raw)
	if err != nil {
		t.Fatal(err)
	}
	var sr *campaign.ScenarioResult
	for i := range res.Scenarios {
		if res.Scenarios[i].Kind == campaign.KindFullKey {
			sr = &res.Scenarios[i]
		}
	}
	if sr == nil {
		t.Fatal("paper campaign has no fullkey scenario")
	}
	sc := &campaign.Scenario{ID: sr.ID, Seed: sr.Seed}
	out, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScenarioShape(out, sc, sr); err != nil {
		t.Fatalf("well-formed result rejected: %v", err)
	}
	changed := *sr
	changed.Traces++
	out, err = json.Marshal(&changed)
	if err != nil {
		t.Fatal(err)
	}
	if checkScenarioShape(out, sc, sr) == nil {
		t.Fatal("result with a changed trace count accepted")
	}
}

// At a non-committed seed a Table 2 row must keep the paper's dual-issue
// verdict and detect every leaking cell; one chance detection of a
// non-leaking cell is tolerated, two are not.
func TestRowVerdicts(t *testing.T) {
	want := campaign.Table2Row{Row: 2, Cells: []campaign.Table2Cell{
		{Column: "ALU", Expr: "rA", Scored: true, Expected: true, Detected: true},
		{Column: "ALU", Expr: "rB", Scored: true},
		{Column: "RF", Expr: "rC", Scored: true},
		{Column: "RF", Expr: "rD"},
	}}
	clone := func(edit func(r *campaign.Table2Row)) *campaign.Table2Row {
		r := want
		r.Cells = append([]campaign.Table2Cell(nil), want.Cells...)
		edit(&r)
		return &r
	}
	for _, tc := range []struct {
		name string
		row  *campaign.Table2Row
		ok   bool
	}{
		{"as committed", clone(func(r *campaign.Table2Row) {}), true},
		{"unscored cell detected", clone(func(r *campaign.Table2Row) { r.Cells[3].Detected = true }), true},
		{"one false positive", clone(func(r *campaign.Table2Row) { r.Cells[1].Detected = true }), true},
		{"two false positives", clone(func(r *campaign.Table2Row) { r.Cells[1].Detected, r.Cells[2].Detected = true, true }), false},
		{"missed leak", clone(func(r *campaign.Table2Row) { r.Cells[0].Detected = false }), false},
		{"dual issue differs", clone(func(r *campaign.Table2Row) { r.Dual = true }), false},
		{"cell changed", clone(func(r *campaign.Table2Row) { r.Cells[2].Expr = "rE" }), false},
		{"cell missing", clone(func(r *campaign.Table2Row) { r.Cells = r.Cells[:3] }), false},
	} {
		if err := checkRowVerdicts(tc.row, &want); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
