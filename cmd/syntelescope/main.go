// Command syntelescope simulates one measurement year of telescope traffic
// and writes the accepted capture as pcap, pcapng or compact flowlog spool
// (-format), or just prints capture statistics when no output is given.
// Flag wiring around internal/workload and internal/capture.
//
// Usage:
//
//	syntelescope -year 2020 -out capture.pcap
//	syntelescope -year 2020 -format spool -out capture.spool
//	syntelescope -year 2024 -scale 0.001 -telescope 8192
//
// A pcap or pcapng holds full Ethernet+IPv4+TCP frames with valid checksums
// and nanosecond timestamps, readable by any pcap tool; a spool holds header
// fields only, plus the telescope size. synalyze and syningest read all three.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"github.com/synscan/synscan/internal/capture"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("syntelescope: ")

	year := flag.Int("year", 2020, "measurement year (2015-2024)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.002, "volume scale relative to the paper")
	telSize := flag.Int("telescope", 4096, "monitored address count")
	out := flag.String("out", "", "output path (omit for stats only)")
	formatName := flag.String("format", "pcap", "output format: pcap, pcapng, or spool (compact flowlog)")
	maxPackets := flag.Uint64("max-packets", 0, "stop after this many accepted packets (0 = all)")
	reactiveMode := flag.Bool("reactive", false, "answer SYNs with synthesized SYN-ACKs (Spoki-style): two-phase scanners return with handshakes and payloads")
	respondRate := flag.Float64("respond-rate", 1000, "reactive: SYN-ACKs per second cap (0 = unlimited)")
	respondPorts := flag.String("respond-ports", "", "reactive: comma-separated port allowlist (empty = all ports)")
	reg, finish, err := obs.ParseFlags(obs.OnRequest)
	if err != nil {
		log.Fatal(err)
	}
	format, err := capture.ParseFormat(*formatName)
	if err != nil {
		log.Fatal(err)
	}

	s, err := workload.NewScenario(workload.Config{
		Year: *year, Seed: *seed, Scale: *scale, TelescopeSize: *telSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	s.Telescope.SetMetrics(reg)

	var cw *capture.Writer
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if cw, err = capture.NewWriter(f, format, s.Telescope.Size()); err != nil {
			log.Fatal(err)
		}
	}

	var accepted uint64
	write := func(p *packet.Probe) {
		if *maxPackets > 0 && accepted >= *maxPackets {
			return
		}
		accepted++
		if cw != nil {
			if err := cw.Write(p); err != nil {
				log.Fatal(err)
			}
		}
	}

	var sum workload.Summary
	var respStats reactive.Stats
	genSpan := obs.StartSpan(reg.Histogram("generate.run_ns"))
	if *reactiveMode {
		pol := reactive.Policy{RatePerSec: *respondRate, Seed: *seed}
		if *respondPorts != "" {
			for _, fld := range strings.Split(*respondPorts, ",") {
				v, err := strconv.ParseUint(strings.TrimSpace(fld), 10, 16)
				if err != nil {
					log.Fatalf("invalid -respond-ports entry %q", fld)
				}
				pol.Ports = append(pol.Ports, uint16(v))
			}
		}
		rt := reactive.New(s.Telescope, pol)
		rt.SetMetrics(reg)
		sum = s.RunReactive(rt, func(p *packet.Probe, d reactive.Disposition) {
			if d.Reason == telescope.Accepted {
				write(p)
			}
		})
		respStats = rt.Stats()
	} else {
		sum = s.Run(func(p *packet.Probe) {
			if s.Telescope.Observe(p) != telescope.Accepted {
				return
			}
			write(p)
		})
	}
	genSpan.End()
	if cw != nil {
		if err := cw.Flush(); err != nil {
			log.Fatal(err)
		}
	}

	st := s.Telescope.Stats()
	fmt.Printf("year %d: window %d days, telescope %d addresses\n",
		*year, s.Profile.Days, s.Telescope.Size())
	fmt.Printf("generated  %12d probes (%d campaigns, %d background sources)\n",
		sum.Probes, sum.Campaigns, sum.BackgroundSources)
	fmt.Printf("accepted   %12d\n", accepted)
	fmt.Printf("dropped    %12d not-monitored, %d policy, %d backscatter, %d non-tcp, %d outage\n",
		st.NotMonitored, st.Policy, st.NotSYN, st.NotTCP, st.Outage)
	if *reactiveMode {
		fmt.Printf("reactive   %12d syn-acks, %d phase-2 segments (%d payloads), %d two-phase campaigns\n",
			respStats.Responded, respStats.Phase2, respStats.Payloads, sum.TwoPhaseCampaigns)
	}
	if *out != "" {
		fmt.Printf("wrote %s\n", *out)
	}
	if err := finish(); err != nil {
		log.Fatal(err)
	}
}
