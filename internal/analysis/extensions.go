package analysis

import (
	"sort"

	"github.com/synscan/synscan/internal/stats"
	"github.com/synscan/synscan/internal/tools"
	"github.com/synscan/synscan/internal/workload"
)

// This file implements the §5.4 origin-country analysis and the paper's §7
// future-work directions: quantifying the bias institutional ("benign")
// scanners introduce, the share of traffic blockable by tool fingerprints,
// and a two-vantage-point comparison.

// ---------------------------------------------------------------------------
// §5.4: origin-country structure

// CountryShare is one country's share of something.
type CountryShare struct {
	Country string
	Share   float64
}

// Sec54Result describes where scanning comes from in one year.
type Sec54Result struct {
	Year int
	// TopCountries ranks countries by share of accepted packets.
	TopCountries []CountryShare
	// DominatedPorts counts, per country, the ports where more than 80%
	// of the traffic originates from that single country (the paper: CN
	// dominates 14,444 ports in 2022, US 666, BR 221, ...).
	DominatedPorts map[string]int
	// PortOrigins gives the per-country split for the headline biased
	// ports (443 → US, 3389/3306 → CN, 8545 → VN).
	PortOrigins map[uint16][]CountryShare
}

// sec54MinVolume is the per-port volume floor below which domination is
// not counted (single-packet ports are trivially "dominated").
const sec54MinVolume = 25

// Sec54 computes the origin-country structure of a collected year.
func Sec54(yd *YearData) *Sec54Result {
	res := &Sec54Result{
		Year:           yd.Year,
		DominatedPorts: map[string]int{},
		PortOrigins:    map[uint16][]CountryShare{},
	}

	// Aggregate per country and per port.
	countryTotal := map[string]uint64{}
	portTotal := map[uint16]uint64{}
	portBest := map[uint16]struct {
		country string
		n       uint64
	}{}
	var grand uint64
	for _, key := range yd.CountryPackets.Keys() {
		n := yd.CountryPackets.Get(key)
		countryTotal[key.Country] += n
		portTotal[key.Port] += n
		grand += n
		if b := portBest[key.Port]; n > b.n {
			portBest[key.Port] = struct {
				country string
				n       uint64
			}{key.Country, n}
		}
	}

	for c, n := range countryTotal {
		res.TopCountries = append(res.TopCountries, CountryShare{c, float64(n) / float64(grand)})
	}
	sort.Slice(res.TopCountries, func(i, j int) bool {
		if res.TopCountries[i].Share != res.TopCountries[j].Share {
			return res.TopCountries[i].Share > res.TopCountries[j].Share
		}
		return res.TopCountries[i].Country < res.TopCountries[j].Country
	})

	for port, total := range portTotal {
		if total < sec54MinVolume {
			continue
		}
		if b := portBest[port]; float64(b.n) > 0.8*float64(total) {
			res.DominatedPorts[b.country]++
		}
	}

	for _, port := range []uint16{443, 3389, 3306, 8545, 80} {
		total := portTotal[port]
		if total == 0 {
			continue
		}
		var shares []CountryShare
		for _, key := range yd.CountryPackets.Keys() {
			if key.Port != port {
				continue
			}
			shares = append(shares, CountryShare{
				key.Country, float64(yd.CountryPackets.Get(key)) / float64(total),
			})
		}
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].Share != shares[j].Share {
				return shares[i].Share > shares[j].Share
			}
			return shares[i].Country < shares[j].Country
		})
		if len(shares) > 5 {
			shares = shares[:5]
		}
		res.PortOrigins[port] = shares
	}
	return res
}

// NormalizedOrigin is one country's raw vs address-space-normalized
// scanning intensity.
type NormalizedOrigin struct {
	Country string
	// RawShare is the country's share of accepted packets.
	RawShare float64
	// AddressShare is its share of the registry's routable /16 blocks.
	AddressShare float64
	// Intensity is RawShare/AddressShare: >1 means the country scans more
	// than its address space predicts.
	Intensity float64
}

// Sec42Normalized reproduces the §4.2 normalization: when traffic is
// normalized by address space, the historically loud countries no longer
// stand out and the Netherlands becomes the outlier (cheap hosting,
// high-speed connectivity, bulletproof hosters).
func Sec42Normalized(yd *YearData) []NormalizedOrigin {
	reg := yd.Registry()
	blocks := map[string]int{}
	totalBlocks := 0
	for b := 0; b < 65536; b++ {
		e := reg.Lookup(uint32(b) << 16)
		if e.Country == "" {
			continue
		}
		blocks[e.Country]++
		totalBlocks++
	}
	countryPackets := map[string]uint64{}
	var grand uint64
	for _, key := range yd.CountryPackets.Keys() {
		n := yd.CountryPackets.Get(key)
		countryPackets[key.Country] += n
		grand += n
	}
	var out []NormalizedOrigin
	for c, n := range countryPackets {
		if blocks[c] == 0 || grand == 0 {
			continue
		}
		raw := float64(n) / float64(grand)
		addr := float64(blocks[c]) / float64(totalBlocks)
		out = append(out, NormalizedOrigin{
			Country: c, RawShare: raw, AddressShare: addr, Intensity: raw / addr,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Intensity != out[j].Intensity {
			return out[i].Intensity > out[j].Intensity
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// ---------------------------------------------------------------------------
// §7: benign-scanner bias

// BiasResult quantifies how much institutional scanning distorts a naive
// quantification of the threat landscape (§7: "measurements could be off by
// over 30%").
type BiasResult struct {
	Year int
	// InstPacketShare is institutional traffic's share of all packets.
	InstPacketShare float64
	// TopPortsRaw and TopPortsFiltered are the top-port rankings with and
	// without institutional traffic.
	TopPortsRaw, TopPortsFiltered []PortShare
	// RankingChanged reports whether filtering changes the top-N set.
	RankingChanged bool
}

// InstitutionalBias compares the top-port table with and without
// institutional traffic.
func InstitutionalBias(yd *YearData, topN int) *BiasResult {
	res := &BiasResult{Year: yd.Year}
	var instTotal uint64
	filtered := stats.NewCounter[uint16]()
	for _, port := range yd.PacketsPerPort.Keys() {
		all := yd.PacketsPerPort.Get(port)
		inst := yd.InstPacketsPerPort.Get(port)
		instTotal += inst
		if all > inst {
			filtered.Add(port, all-inst)
		}
	}
	if t := yd.PacketsPerPort.Total(); t > 0 {
		res.InstPacketShare = float64(instTotal) / float64(t)
	}
	res.TopPortsRaw = topShares(yd.PacketsPerPort, topN)
	res.TopPortsFiltered = topShares(filtered, topN)

	rawSet := map[uint16]bool{}
	for _, ps := range res.TopPortsRaw {
		rawSet[ps.Port] = true
	}
	for _, ps := range res.TopPortsFiltered {
		if !rawSet[ps.Port] {
			res.RankingChanged = true
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// §7: alert-fatigue / fingerprint blockability

// BlockableResult is the share of traffic identifiable (and hence
// blockable) via the §3.3 per-packet tool fingerprints.
type BlockableResult struct {
	Year int
	// Share is the fraction of accepted probes carrying a known per-packet
	// fingerprint (paper: 92.1% in 2020, under 40% by 2024).
	Share float64
	// PerTool decomposes the identifiable traffic.
	PerTool map[tools.Tool]float64
}

// Blockable computes the fingerprint-identifiable traffic share.
func Blockable(yd *YearData) *BlockableResult {
	res := &BlockableResult{Year: yd.Year, PerTool: map[tools.Tool]float64{}}
	total := float64(yd.AcceptedPackets)
	if total == 0 {
		return res
	}
	// Integer tallies, divided once: a share summed port by port would depend
	// on the order the counter's keys come in.
	var ident uint64
	perTool := map[tools.Tool]uint64{}
	for _, key := range yd.PacketsPerToolPort.Keys() {
		if key.Tool != tools.ToolUnknown {
			n := yd.PacketsPerToolPort.Get(key)
			ident += n
			perTool[key.Tool] += n
		}
	}
	for tl, n := range perTool {
		res.PerTool[tl] = float64(n) / total
	}
	res.Share = float64(ident) / total
	return res
}

// ---------------------------------------------------------------------------
// §7: vantage-point comparison

// VantageResult compares the view of two telescopes observing the same
// scanning ecosystem.
type VantageResult struct {
	Year int
	// PacketRatio and ScanRatio are B's totals over A's.
	PacketRatio, ScanRatio float64
	// TopPortOverlap is |top-10(A) ∩ top-10(B)| / 10 on the by-packets
	// ranking.
	TopPortOverlap float64
	// SpeedKS compares the two campaign-speed distributions.
	SpeedKS stats.KSResult
}

// CompareVantage runs the same year twice with different telescope address
// sets and compares the results. Note the simulation targets probes at
// monitored addresses directly (DESIGN.md), so this comparison isolates the
// address-sampling effect, not geographic targeting: agreement here is an
// upper bound on real-world vantage agreement.
func CompareVantage(year int, seed uint64, scale float64, telescopeSize int, telSeedA, telSeedB uint64) (*VantageResult, error) {
	run := func(telSeed uint64) (*YearData, error) {
		s, err := workload.NewScenario(workload.Config{
			Year: year, Seed: seed, Scale: scale,
			TelescopeSize: telescopeSize, TelescopeSeed: telSeed,
		})
		if err != nil {
			return nil, err
		}
		return Collect(s, CollectConfig{}), nil
	}
	a, err := run(telSeedA)
	if err != nil {
		return nil, err
	}
	b, err := run(telSeedB)
	if err != nil {
		return nil, err
	}

	res := &VantageResult{Year: year}
	if a.AcceptedPackets > 0 {
		res.PacketRatio = float64(b.AcceptedPackets) / float64(a.AcceptedPackets)
	}
	qa, qb := len(a.QualifiedScans()), len(b.QualifiedScans())
	if qa > 0 {
		res.ScanRatio = float64(qb) / float64(qa)
	}

	topA := a.PacketsPerPort.TopK(10)
	topB := b.PacketsPerPort.TopK(10)
	inA := map[uint16]bool{}
	for _, kv := range topA {
		inA[kv.Key] = true
	}
	overlap := 0
	for _, kv := range topB {
		if inA[kv.Key] {
			overlap++
		}
	}
	if len(topA) > 0 {
		res.TopPortOverlap = float64(overlap) / float64(len(topA))
	}

	speeds := func(yd *YearData) []float64 {
		var out []float64
		for _, sc := range yd.QualifiedScans() {
			out = append(out, sc.RatePPS)
		}
		return out
	}
	if ks, err := stats.KS2Sample(speeds(a), speeds(b)); err == nil {
		res.SpeedKS = ks
	}
	return res, nil
}
