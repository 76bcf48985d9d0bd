// Volatility reproduces the Figure-2 analysis of §4.4: week-over-week, the
// scanning activity of most /16 source netblocks changes by a factor of two
// or more — only a stable core (largely institutional space) keeps doing
// the same thing. The paper's conclusion: blocklists go stale in days, and
// one-shot measurements mischaracterize the ecosystem.
package main

import (
	"fmt"
	"log"

	synscan "github.com/synscan/synscan"
)

func main() {
	yd, err := synscan.Simulate(synscan.Config{
		Year: 2020, Seed: 11, Scale: 0.001, TelescopeSize: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}

	ev, err := synscan.Evaluate(synscan.Input{Years: []*synscan.YearData{yd}}, "fig2")
	if err != nil {
		log.Fatal(err)
	}
	res := ev.Figure2

	fmt.Printf("weekly change factors across source /16 netblocks, %d\n\n", yd.Year)
	fmt.Printf("%-28s %10s %10s %10s\n", "", "sources", "scans", "packets")
	fmt.Printf("%-28s %9.1f%% %9.1f%% %9.1f%%\n", "changed >= 2x week-over-week",
		res.SourcesTwofold*100, res.ScansTwofold*100, res.PacketsTwofold*100)
	fmt.Printf("%-28s %9.1f%%\n\n", "stable blocks (< 1.25x)", res.Stable*100)

	fmt.Println("packet change-factor distribution (CDF):")
	ratios := res.PacketRatios
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		idx := int(q * float64(len(ratios)-1))
		fmt.Printf("  p%-3.0f  %6.1fx\n", q*100, ratios[idx])
	}

	fmt.Println("\nimplication: an IP blocklist distributed weekly describes a")
	fmt.Println("network landscape that no longer exists (§4.4).")
}
