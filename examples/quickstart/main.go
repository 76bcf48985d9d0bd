// Quickstart: simulate one telescope measurement year, detect scan
// campaigns, fingerprint the tools behind them, and print a summary —
// the whole pipeline in ~50 lines of public API.
package main

import (
	"fmt"
	"log"
	"sort"

	synscan "github.com/synscan/synscan"
)

func main() {
	// 2020: the year Masscan carried 81% of scanning traffic and Mirai
	// still drove a quarter of all scans.
	yd, err := synscan.Simulate(synscan.Config{
		Year:          2020,
		Seed:          42,
		Scale:         0.001, // ~1/1000 of the paper's traffic volume
		TelescopeSize: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}

	scans := yd.QualifiedScans()
	fmt.Printf("telescope accepted %d SYN probes from %d sources over %d days\n",
		yd.AcceptedPackets, len(yd.PortsPerSource), yd.Days)
	fmt.Printf("detected %d scan campaigns\n\n", len(scans))

	// Which tools ran them? (§3.3 fingerprints, campaign-level majority.)
	byTool := map[synscan.Tool]int{}
	for _, s := range scans {
		byTool[s.Tool]++
	}
	tools := make([]synscan.Tool, 0, len(byTool))
	for tl := range byTool {
		tools = append(tools, tl)
	}
	sort.Slice(tools, func(i, j int) bool { return byTool[tools[i]] > byTool[tools[j]] })
	fmt.Println("campaigns by tool:")
	for _, tl := range tools {
		fmt.Printf("  %-12s %5d (%.1f%%)\n", tl, byTool[tl],
			100*float64(byTool[tl])/float64(len(scans)))
	}

	// The five most-probed ports.
	fmt.Println("\ntop ports by packets:")
	for _, kv := range yd.PacketsPerPort.TopK(5) {
		fmt.Printf("  %-6d %8d probes\n", kv.Key, kv.Count)
	}

	// And the headline finding: a handful of institutional scanners send
	// an outsized share of all probes (Table 2).
	for _, row := range synscan.Table2([]*synscan.YearData{yd}) {
		if row.Type == synscan.TypeInstitutional {
			fmt.Printf("\ninstitutional scanners: %.2f%% of sources, %.1f%% of packets\n",
				row.Sources*100, row.Packets*100)
		}
	}
}
