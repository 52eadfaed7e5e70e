// Aesattack runs the §5 / Figure 3 experiment end-to-end: the generated
// byte-oriented AES-128 runs on the simulated core, traces are acquired
// through the synthetic measurement chain, and a CPA with the naive
// HW-of-SubBytes-output model recovers the first-round key byte — with
// the correlation peaks landing exactly on the instructions the paper's
// micro-architectural model predicts.
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/target"
)

func main() {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}

	opt := attack.DefaultFig3Options()
	opt.Traces = 800
	opt.Rounds = 1

	fmt.Printf("attacking key byte %d of %x with %d traces (model: HW of SubBytes output)\n\n",
		opt.KeyByte, key, opt.Traces)
	res, err := attack.RunCPA(target.Default, key[:], opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("recovered byte: %#02x (true %#02x), rank of true key: %d, confidence %.4f\n\n",
		res.Recovered, res.TrueKey, res.Rank, res.Confidence)
	fmt.Println("where the correct key correlates (the Figure 3 annotations):")
	for _, r := range res.Regions {
		bar := ""
		n := int(abs(r.PeakCorr) * 40)
		for i := 0; i < n; i++ {
			bar += "#"
		}
		fmt.Printf("  %-4s round %2d  [%5.2f..%5.2f us]  %+0.3f %s\n",
			r.Name, r.Round, r.StartUs, r.EndUs, r.PeakCorr, bar)
	}
	fmt.Println()
	fmt.Println("Reading the peaks like §5 does: the SubBytes look-up's load and store")
	fmt.Println("leak the output byte; ShiftRows re-loads it and rotates it through the")
	fmt.Println("barrel shifter; MixColumns' shift-reduce products and its stack spills")
	fmt.Println("expose it again. A model that ignores the micro-architecture still")
	fmt.Println("succeeds precisely because these structures repeat the value.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
