// Command synalyze replays a telescope capture — pcap, pcapng or compact
// flowlog spool, detected by magic — through the paper's methodology: SYN
// filtering, campaign detection (§3.4), tool fingerprinting (§3.3), and
// summary reporting. Flag wiring around internal/capture.
//
// Usage:
//
//	syntelescope -year 2020 -out capture.pcap
//	syntelescope -year 2020 -format spool -out capture.spool
//	synalyze -telescope 4096 capture.pcap
//	synalyze capture.spool            # telescope size from the header
//
// For pcap and pcapng input the -telescope flag must match the capture's
// monitored-address count: rate and coverage extrapolation depend on it.
// Spools carry it in their header. -workers shards detection; the report is
// the same at every worker count. To keep the campaigns, ingest the capture
// into a segment store with syningest.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/synscan/synscan/internal/capture"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/report"
	"github.com/synscan/synscan/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("synalyze: ")

	flag.Int("telescope", 4096, "monitored address count of the capture")
	minDsts := flag.Int("min-dsts", 0, "campaign threshold on distinct destinations (0 = paper default scaled)")
	topN := flag.Int("top", 10, "ranking depth for the port tables")
	workers := flag.Int("workers", 1, "campaign-detector shards; >1 runs detection on that many goroutines")
	reactiveMode := flag.Bool("reactive", false, "admit phase-two TCP segments (handshake ACKs, payload pushes) from a reactive capture instead of dropping all non-SYNs")
	reg, finish, err := obs.ParseFlags(obs.OnRequest)
	if err != nil {
		log.Fatal(err)
	}

	if *workers < 1 {
		log.Fatalf("-workers must be at least 1, got %d", *workers)
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: synalyze [flags] capture.{pcap,pcapng,spool}")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rd, err := capture.Open(f)
	if err != nil {
		log.Fatal(err)
	}
	telSize := capture.TelescopeSize(rd, flag.CommandLine, "telescope")

	// The report's tallies fold in each flow as it closes; no scan is kept.
	var flows, qualified, twoPhase int
	toolHist := map[string]uint64{}
	var speeds []float64
	det := capture.NewDetector(telSize, *minDsts, *workers, reg, func(s *core.Scan) {
		flows++
		if s.TwoPhase {
			twoPhase++
		}
		if s.Qualified {
			qualified++
			toolHist[s.Tool.String()]++
			speeds = append(speeds, s.RatePPS)
		}
	})

	packetsPerPort := stats.NewCounter[uint16]()
	st, err := capture.Replay(rd, det, capture.ReplayConfig{
		Reactive: *reactiveMode, Metrics: reg,
		Accepted: func(p *packet.Probe) { packetsPerPort.Inc(p.DstPort) },
	})
	if err != nil {
		log.Fatal(err)
	}
	flushSpan := obs.StartSpan(reg.Histogram("replay.flush_ns"))
	det.FlushAll()
	flushSpan.End()

	fmt.Printf("records %d, parsed %d, SYN %d\n", st.Records, st.Records-st.Unparsed, st.Accepted-st.Phase2)
	if *reactiveMode {
		fmt.Printf("phase-2 segments %d, two-phase campaigns %d\n", st.Phase2, twoPhase)
	}
	fmt.Printf("flows closed %d, qualified campaigns %d\n\n", flows, qualified)

	report.Histogram(os.Stdout, "campaigns by tool", toolHist)
	fmt.Println()

	t := report.NewTable("port", "packets", "share")
	for _, kv := range packetsPerPort.TopK(*topN) {
		t.AddRow(fmt.Sprint(kv.Key), fmt.Sprint(kv.Count),
			report.Pct(float64(kv.Count)/float64(packetsPerPort.Total())))
	}
	fmt.Println("top ports by packets:")
	t.WriteTo(os.Stdout)

	if len(speeds) > 0 {
		fmt.Println()
		report.CDF(os.Stdout, "extrapolated campaign speed (pps)", stats.NewECDF(speeds))
	}

	if err := finish(); err != nil {
		log.Fatal(err)
	}
}
