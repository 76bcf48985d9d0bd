package workload

import (
	"container/heap"
	"math"
	"time"

	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/rng"
	"github.com/synscan/synscan/internal/tools"
)

// specKind separates scan traffic from background-radiation noise.
type specKind uint8

const (
	kindScan specKind = iota
	kindBackground
	kindBackscatter
	kindICMPSweep
	kindUDPProbe
	// kindFollowup carries prebuilt phase-two packets (handshake SYNs, ACKs,
	// payload pushes) scheduled by RunReactive in response to SYN-ACKs.
	kindFollowup
)

// spec is one probe-emitting entity: a scan campaign (or one shard of a
// collaborative scan), a background noise source, or a backscatter episode.
type spec struct {
	kind     specKind
	start    int64
	interval int64
	count    int
	ports    []uint16
	portOff  int
	// priority ports are probed first within the campaign, before the
	// cyclic walk over ports: institutional scanners revisit the key
	// service ports in every scan while the full-range walk progresses
	// (this is what makes HTTPS an institution-dominated port in Fig. 5).
	priority []uint16
	prober   tools.Prober
	perm     *rng.FeistelPerm
	jit      *rng.Rand
	jitSeed  uint64
	inst     bool
	// stride/strideOff partition a sharded scan's target space: shard k of
	// n visits permutation indices k, k+n, k+2n, ... — ZMap sharding.
	stride    int
	strideOff int

	// backscatter fields
	victim uint32

	// reactive-run state (see reactive.go): two-phase designation, the
	// simulated kernel stack, the follow-up timing stream, and — for
	// kindFollowup specs — the prebuilt packets to emit.
	twoPhase bool
	tp       *tools.TwoPhase
	fr       *rng.Rand
	pending  []packet.Probe

	// iteration state
	idx int
}

// hash64 is a stateless mixer for per-index jitter: peeking a probe's time
// must not consume generator state.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// timeAt returns the emission time of the spec's i-th probe. Jitter is
// bounded by a quarter interval, so times are strictly ordered within a
// spec.
func (sp *spec) timeAt(i int) int64 {
	if sp.kind == kindFollowup {
		return sp.pending[i].Time
	}
	t := sp.start + int64(i)*sp.interval
	if sp.interval > 4 {
		j := int64(hash64(sp.jitSeed+uint64(i))%uint64(sp.interval/2+1)) - sp.interval/4
		t += j
		if t < sp.start {
			t = sp.start
		}
	}
	return t
}

// probeAt materializes the spec's i-th probe. It must be called exactly once
// per index, in order: the payload fields consume per-spec generator state.
func (sp *spec) probeAt(tel telescopeIndex, i int) packet.Probe {
	var p packet.Probe
	switch sp.kind {
	case kindFollowup:
		return sp.pending[i]
	case kindICMPSweep:
		// Ping sweep: echo requests across the monitored space.
		p = packet.Probe{
			Src: sp.victim, Dst: tel.At(int(sp.perm.Apply(uint64(i) % sp.perm.Len()))),
			SrcPort: uint16(sp.jit.Uint32()), Seq: uint32(i),
			TTL: 60, Flags: packet.ICMPEchoRequest, Proto: packet.ProtoICMP,
		}
		p.Time = sp.timeAt(i)
		return p
	case kindUDPProbe:
		// UDP service probes (SSDP/DNS/NTP-style sweeps).
		p = packet.Probe{
			Src: sp.victim, Dst: tel.At(int(sp.perm.Apply(uint64(i) % sp.perm.Len()))),
			SrcPort: uint16(1024 + sp.jit.Intn(64512)), DstPort: sp.ports[i%len(sp.ports)],
			TTL: 55, Proto: packet.ProtoUDP,
		}
		p.Time = sp.timeAt(i)
		return p
	}
	if sp.kind == kindBackscatter {
		// SYN/ACK from a DDoS victim whose address was spoofed: arrives at
		// random monitored addresses and must be filtered by the telescope.
		dst := tel.At(int(sp.jit.Uint32()) % tel.Size())
		p = packet.Probe{
			Src: sp.victim, Dst: dst,
			SrcPort: 80, DstPort: uint16(1024 + sp.jit.Intn(64512)),
			Seq: sp.jit.Uint32(), Ack: sp.jit.Uint32(),
			IPID: uint16(sp.jit.Uint32()), TTL: 55,
			Flags: packet.FlagSYN | packet.FlagACK, Window: 65535,
		}
	} else {
		stride := sp.stride
		if stride < 1 {
			stride = 1
		}
		di := sp.perm.Apply(uint64(sp.strideOff+i*stride) % sp.perm.Len())
		dst := tel.At(int(di))
		var port uint16
		if i < len(sp.priority) {
			port = sp.priority[i]
		} else {
			port = sp.ports[(sp.portOff+i-len(sp.priority))%len(sp.ports)]
		}
		p = sp.prober.Probe(dst, port)
	}
	p.Time = sp.timeAt(i)
	return p
}

// telescopeIndex is the minimal telescope interface the generator needs.
type telescopeIndex interface {
	At(i int) uint32
	Size() int
}

// specHeap orders specs by next emission time.
type specHeap []*spec

func (h specHeap) Len() int            { return len(h) }
func (h specHeap) Less(i, j int) bool  { return h[i].timeAt(h[i].idx) < h[j].timeAt(h[j].idx) }
func (h specHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *specHeap) Push(x interface{}) { *h = append(*h, x.(*spec)) }
func (h *specHeap) Pop() interface{} {
	old := *h
	n := len(old)
	sp := old[n-1]
	*h = old[:n-1]
	return sp
}

// toolSpeed holds the per-tool Internet-wide rate distribution (log-normal,
// pps). Medians encode §6.3: ZMap fastest on average, NMap faster than
// Masscan, Mirai (embedded devices) slowest, the top end reserved for
// ZMap/Masscan.
type toolSpeed struct{ mu, sigma float64 }

var speedParams = map[tools.Tool]toolSpeed{
	tools.ToolZMap:    {math.Log(25000), 1.6},
	tools.ToolMasscan: {math.Log(8000), 1.4},
	tools.ToolNMap:    {math.Log(12000), 0.9},
	tools.ToolMirai:   {math.Log(160), 0.6},
	tools.ToolUnicorn: {math.Log(2000), 0.8},
	tools.ToolCustom:  {math.Log(3000), 1.3},
}

// toolSizeMul scales campaign sizes by tool: high-performance tools run the
// big campaigns, Mirai devices the small continuous ones (§4.1), and custom
// tooling is low-volume — in 2020 only 7.9% of probes came from outside the
// four tracked tools even though custom scans were ~46% of campaigns.
var toolSizeMul = map[tools.Tool]float64{
	tools.ToolZMap:    3.0,
	tools.ToolMasscan: 4.0,
	tools.ToolNMap:    0.6,
	tools.ToolMirai:   0.2,
	tools.ToolUnicorn: 0.4,
	tools.ToolCustom:  0.25,
}

// portAliases models the §5.1 alternative-port coverage: scans of the key
// port include the alias ports with the profile's PairRate probability.
var portAliases = map[uint16][]uint16{
	80:   {8080, 8000, 8888},
	443:  {8443, 1443},
	22:   {2222},
	23:   {2323},
	2375: {2376},
	3389: {3390},
}

// orgTools maps institutional organizations to the scanner stacks they run:
// the ZMap-derived research stacks carry the classic IPID marker, the
// commercial engines run their own (unfingerprintable) code, and a few use
// masscan. From 2023 the big ZMap users deploy patched builds without the
// static IP identification (§6: by 2024 under 40% of traffic is
// attributable to the four tracked tools).
var orgTools = map[string]tools.Tool{
	"Censys":                 tools.ToolZMap,
	"Rapid7":                 tools.ToolZMap,
	"University of Michigan": tools.ToolZMap,
	"Stanford University":    tools.ToolZMap,
	"TU Munich":              tools.ToolZMap,
	"RWTH Aachen":            tools.ToolZMap,
	"TU Delft":               tools.ToolZMap,
	"UCSD":                   tools.ToolZMap,
	"Onyphe":                 tools.ToolZMap,
	"Stretchoid":             tools.ToolMasscan,
	"Internet Census Group":  tools.ToolMasscan,
	"Driftnet":               tools.ToolMasscan,
	"Criminal IP":            tools.ToolMasscan,
	"Alpha Strike Labs":      tools.ToolMasscan,
	// Everyone else (Shodan, Palo Alto Networks, Shadowserver, ...) runs
	// bespoke stacks with no deliberate fingerprint.
}

// orgTool resolves an org's scanning stack for a year.
func orgTool(name string, year int) tools.Tool {
	tl, ok := orgTools[name]
	if !ok {
		return tools.ToolCustom
	}
	// The commercial scanners move to patched, unfingerprintable builds
	// from 2023 (§6.1: by 2024 only a minority of traffic is attributable
	// to the tracked tools); academic scanners keep stock ZMap.
	if year >= 2023 && tl != tools.ToolCustom {
		switch name {
		case "University of Michigan", "Stanford University", "TU Munich",
			"RWTH Aachen", "TU Delft", "UCSD":
			return tl
		}
		return tools.ToolCustom
	}
	return tl
}

// iotPorts drive Mirai-like background sources.
var iotPorts = map[uint16]bool{
	23: true, 2323: true, 5555: true, 7547: true, 37215: true,
	52869: true, 60023: true, 81: true, 23231: true, 9527: true, 34567: true,
}

// build materializes all specs for the scenario.
func (s *Scenario) build() error {
	prof := s.Profile
	r := rng.New(s.cfg.Seed).Derive("workload").DeriveN("year", uint64(prof.Year))
	ratio := float64(s.Telescope.Size()) / paperTelescopeSize

	// Observation noise: how many of a campaign's probes land in *this*
	// telescope is a sampling process — two vantage points of equal size
	// see Poisson-noised counts around the same expectation (§7's
	// vantage-comparison direction). The noise is keyed by the telescope
	// seed so vantages differ while the underlying ecosystem does not.
	telSeed := s.cfg.TelescopeSeed
	if telSeed == 0 {
		telSeed = s.cfg.Seed
	}
	vantage := rng.New(telSeed).Derive("workload/vantage")
	observe := func(n int) int {
		m := vantage.Poisson(float64(n))
		if m < 1 {
			m = 1
		}
		return m
	}

	// Total probe budget at simulation scale.
	totalBudget := prof.PacketsPerDayM * 1e6 * float64(prof.Days) * ratio * s.cfg.Scale
	instBudget := totalBudget * prof.InstPacketShare

	nCampaigns := int(prof.ScansPerMonthK*1e3*prof.months()*s.cfg.Scale + 0.5)
	if nCampaigns < 20 {
		nCampaigns = 20
	}

	// Samplers.
	scanW := make([]float64, len(prof.PortRows))
	pktBoost := make([]float64, len(prof.PortRows))
	for i, row := range prof.PortRows {
		scanW[i] = row.Scan
		pktBoost[i] = row.Pkt / row.Scan
	}
	tailBoost := prof.TailPkt / prof.TailScan
	portPick := rng.NewWeightedChoice(append(scanW, prof.TailScan))

	countryW := make([]float64, len(prof.Countries))
	for i, c := range prof.Countries {
		countryW[i] = c.W
	}
	countryPick := rng.NewWeightedChoice(countryW)

	toolOrder := []tools.Tool{tools.ToolMasscan, tools.ToolNMap, tools.ToolZMap,
		tools.ToolMirai, tools.ToolUnicorn, tools.ToolCustom}
	toolW := make([]float64, len(toolOrder))
	rest := 1.0
	for i, tl := range toolOrder[:len(toolOrder)-1] {
		toolW[i] = prof.ToolShares[tl]
		rest -= prof.ToolShares[tl]
	}
	if rest < 0 {
		rest = 0
	}
	toolW[len(toolW)-1] = rest
	toolPick := rng.NewWeightedChoice(toolW)

	// Scanner-type mix of campaigns (Table 2, scans row, institutional
	// handled separately).
	typeOrder := []inetmodel.ScannerType{
		inetmodel.TypeResidential, inetmodel.TypeUnknown,
		inetmodel.TypeEnterprise, inetmodel.TypeHosting,
	}
	typePick := rng.NewWeightedChoice([]float64{46.12, 25.07, 15.75, 5.61})
	miraiTypePick := rng.NewWeightedChoice([]float64{85, 10, 5, 0})

	minDsts := s.DetectorConfig.MinDistinctDsts
	minSize := 2 * minDsts

	// drawPorts assembles a campaign's port list around a primary port.
	drawPorts := func(cr *rng.Rand, primary uint16) []uint16 {
		ports := []uint16{primary}
		if cr.Bool(prof.CampaignSinglePort) {
			return ports
		}
		seen := map[uint16]bool{primary: true}
		add := func(p uint16) {
			if !seen[p] {
				seen[p] = true
				ports = append(ports, p)
			}
		}
		for _, alias := range portAliases[primary] {
			if cr.Bool(prof.PairRate) {
				add(alias)
			}
		}
		// Heavy-tailed extra-port count: P(k) ~ 1/k^1.5, with the base
		// probability growing as the ecosystem diversifies so the share of
		// 3+-port scans rises year over year (§5.1, R = 0.88).
		base := 0.35 + 0.8*(1-prof.CampaignSinglePort)
		if base > 0.95 {
			base = 0.95
		}
		extra := 0
		for k := 1; k < prof.MultiPortMax; k++ {
			if cr.Bool(math.Pow(float64(k), -1.5) * base) {
				extra++
			} else {
				break
			}
		}
		for i := 0; i < extra; i++ {
			if cr.Bool(prof.FullRangeNoise * 3) {
				add(uint16(cr.Uint32()))
			} else {
				j := portPick.Sample(cr)
				if j < len(prof.PortRows) {
					add(prof.PortRows[j].Port)
				} else {
					add(prof.TailPorts[cr.Intn(len(prof.TailPorts))])
				}
			}
		}
		return ports
	}

	// campaignCountry resolves the origin country honoring port biases:
	// a campaign covering a biased port (as primary or alias) originates
	// from the biased country with that bias's probability.
	campaignCountry := func(cr *rng.Rand, ports []uint16) string {
		for _, b := range prof.Biases {
			for _, p := range ports {
				if b.Port == p {
					if cr.Bool(b.Share) {
						return b.Country
					}
					break
				}
			}
		}
		return prof.Countries[countryPick.Sample(cr)].Code
	}

	// sourceIP draws a source address for (country, type), falling back to
	// type-anywhere when the combination has no space.
	sourceIP := func(cr *rng.Rand, country string, typ inetmodel.ScannerType) uint32 {
		if ip, ok := s.Registry.RandomIP(cr, country, typ); ok {
			return ip
		}
		ip, _ := s.Registry.RandomIPOfType(cr, typ)
		return ip
	}

	type draft struct {
		size    float64
		ports   []uint16
		tool    tools.Tool
		country string
		typ     inetmodel.ScannerType
		speed   float64
		shards  int
	}
	var drafts []draft
	meanSim := prof.MeanPacketsPerScan * ratio

	yearIdx := float64(prof.Year - 2015)
	addDraft := func(cr *rng.Rand, primary uint16, boost float64, tool tools.Tool, vertical bool) {
		d := draft{tool: tool}
		if vertical {
			// §5.2: vertical scans cover 10k–55k ports at ~0.3 Gbps.
			nPorts := 10000 + cr.Intn(45000)
			pp := rng.NewFeistelPerm(65536, cr)
			d.ports = make([]uint16, nPorts)
			for i := range d.ports {
				d.ports[i] = uint16(pp.Apply(uint64(i)))
			}
			d.size = meanSim * 25 * cr.LogNormal(0, 0.5)
			d.speed = 500000 * cr.LogNormal(0, 0.4)
			d.tool = tools.ToolMasscan
			if cr.Bool(0.4) {
				d.tool = tools.ToolZMap
			}
		} else {
			d.ports = drawPorts(cr, primary)
			sp := speedParams[tool]
			// Overall speeds drift slowly down over the years while NMap
			// alone trends up (§6.3); speed also rises with port count
			// (§5.3, R≈0.88).
			mu := sp.mu - 0.04*yearIdx
			if tool == tools.ToolNMap {
				mu = sp.mu + 0.03*yearIdx
			}
			d.speed = math.Exp(mu+sp.sigma*cr.NormFloat64()) * math.Sqrt(float64(len(d.ports)))
			mul := toolSizeMul[tool]
			if o := prof.SizeMul[tool]; o > 0 {
				mul = o
			}
			d.size = cr.LogNormal(math.Log(meanSim*mul*boost)-0.6, 1.1)
		}
		d.country = campaignCountry(cr, d.ports)
		switch {
		case tool == tools.ToolMirai:
			d.typ = typeOrder[miraiTypePick.Sample(cr)]
		case primary == 8545 && cr.Bool(0.75):
			// §6.7: the Ethereum JSON-RPC port is disproportionally
			// targeted from enterprise AS space.
			d.typ = inetmodel.TypeEnterprise
		default:
			d.typ = typeOrder[typePick.Sample(cr)]
		}
		d.shards = 1
		if !vertical && cr.Bool(prof.CollabShare) && d.speed > 3000 {
			max := prof.CollabHostsMax
			d.shards = 2 + cr.Intn(max-1)
		}
		drafts = append(drafts, d)
	}

	cr := r.Derive("campaigns")
	// Anchor campaigns: one per headline port, so the year's signature
	// ports are present even at small simulation scales where weighted
	// sampling alone would miss low-share rows.
	for i, row := range prof.PortRows {
		tool := toolOrder[toolPick.Sample(cr)]
		addDraft(cr, row.Port, pktBoost[i], tool, false)
	}
	plannedSpecs := len(drafts)
	// The paper's scans/month already counts each collaborating host as a
	// separate scan (§3.4 groups by source address), so drafts are added
	// until the *per-source* spec budget is reached, not the draft count.
	for plannedSpecs < nCampaigns {
		j := portPick.Sample(cr)
		var primary uint16
		boost := 1.0
		if j < len(prof.PortRows) {
			primary = prof.PortRows[j].Port
			boost = pktBoost[j]
		} else {
			// Tail campaign: as the ecosystem diversifies, the tail
			// spreads from a pool of known alternative ports over the
			// whole 65,536-port space (§5.1).
			randomShare := prof.FullRangeNoise * 5
			if randomShare > 0.95 {
				randomShare = 0.95
			}
			if cr.Bool(randomShare) {
				primary = uint16(cr.Uint32())
			} else {
				primary = prof.TailPorts[cr.Intn(len(prof.TailPorts))]
			}
			boost = tailBoost
		}
		tool := toolOrder[toolPick.Sample(cr)]
		addDraft(cr, primary, boost, tool, false)
		plannedSpecs += drafts[len(drafts)-1].shards
	}

	// Vertical scans (paper-scale count, scaled with Bernoulli rounding).
	nVert := prof.VerticalScans
	fv := float64(nVert) * s.cfg.Scale * 10 // keep visible at small scales
	nVertSim := int(fv)
	if cr.Bool(fv - float64(nVertSim)) {
		nVertSim++
	}
	if prof.VerticalScans > 0 && nVertSim == 0 {
		nVertSim = 1
	}
	for i := 0; i < nVertSim; i++ {
		addDraft(cr, 80, 1, tools.ToolMasscan, true)
	}

	// Disclosure-event campaigns (Fig. 1).
	for _, ev := range s.cfg.Disclosures {
		for day := ev.Day; day < prof.Days; day++ {
			lambda := ev.PeakPerDay * math.Exp(-float64(day-ev.Day)/ev.DecayDays) * s.cfg.Scale
			n := cr.Poisson(lambda)
			for i := 0; i < n; i++ {
				tool := tools.ToolZMap
				if cr.Bool(0.5) {
					tool = tools.ToolMasscan
				}
				addDraft(cr, ev.Port, 1.5, tool, false)
				// Pin the event campaign into the disclosure day.
				drafts[len(drafts)-1].shards = -(day + 1) // marker, resolved below
			}
		}
	}

	// Rescale sizes to the non-institutional budget, capping any single
	// campaign at 8% of it: even the paper's whales (0.28% of scans send
	// ~80% of traffic collectively) are individually bounded, and without
	// the cap a single lottery-winning draw can dominate a small-scale
	// year's per-country and per-port tables.
	var sum float64
	for i := range drafts {
		sum += drafts[i].size
	}
	nonInst := totalBudget - instBudget
	if sum > 0 && nonInst > 0 {
		f := nonInst / sum
		cap := 0.08 * nonInst
		for i := range drafts {
			drafts[i].size *= f
			if drafts[i].size > cap {
				drafts[i].size = cap
			}
		}
	}

	// Materialize drafts into specs.
	var summaryCampaigns int
	window := s.WindowNanos
	day := int64(24 * time.Hour)
	for di := range drafts {
		d := &drafts[di]
		pinnedDay := -1
		shards := d.shards
		if shards < 0 {
			pinnedDay = -shards - 1
			shards = 1
		}
		size := int(d.size + 0.5)
		if size < minSize {
			size = minSize
		}
		// Shrink shard counts that would drop shards below the detection
		// floor.
		for shards > 1 && size/shards < minSize {
			shards--
		}
		perShard := size / shards
		durNS := int64(float64(perShard*shards) * math.Exp2(32) /
			(float64(s.Telescope.Size()) * d.speed) * 1e9)
		if durNS < int64(time.Second) {
			durNS = int64(time.Second)
		}
		if durNS > window*6/10 {
			durNS = window * 6 / 10
		}
		var start int64
		if pinnedDay >= 0 {
			if durNS > day {
				durNS = day
			}
			start = s.Start + int64(pinnedDay)*day + cr.Int63n(day-durNS+1)
		} else {
			start = s.Start + cr.Int63n(window-durNS+1)
		}

		// Shard sources: half the time a /24 of collaborating hosts
		// (the academic pattern of §6.4), otherwise scattered in-country.
		// All shards share one target permutation and stride through it,
		// like ZMap's sharding (§4.1).
		base := sourceIP(cr, d.country, d.typ)
		sameSlash24 := shards > 1 && cr.Bool(0.5)
		sharedPerm := rng.NewFeistelPerm(uint64(s.Telescope.Size()),
			cr.DeriveN("draftperm", uint64(di)))
		for sh := 0; sh < shards; sh++ {
			src := base
			if sh > 0 {
				if sameSlash24 {
					src = base&0xffffff00 | uint32(sh)
				} else {
					src = sourceIP(cr, d.country, d.typ)
				}
			}
			sr := cr.DeriveN("spec", uint64(len(s.specs)))
			observed := observe(perShard)
			sp := &spec{
				kind:      kindScan,
				start:     start,
				interval:  durNS / int64(observed),
				count:     observed,
				ports:     d.ports,
				prober:    tools.NewProber(d.tool, src, sr.Derive("prober")),
				perm:      sharedPerm,
				jit:       sr.Derive("jitter"),
				jitSeed:   sr.Uint64(),
				stride:    shards,
				strideOff: sh,
			}
			s.specs = append(s.specs, sp)
			summaryCampaigns++
		}

		// §6.6: of the few non-institutional scanners that do come back,
		// most repeat within one day of the end of the last scan. Hosting
		// sources return most often, residential ones (churned away by
		// DHCP) almost never.
		var repeatP float64
		switch d.typ {
		case inetmodel.TypeHosting:
			repeatP = 0.25
		case inetmodel.TypeEnterprise:
			repeatP = 0.10
		case inetmodel.TypeUnknown:
			repeatP = 0.08
		case inetmodel.TypeResidential:
			repeatP = 0.04
		}
		if pinnedDay < 0 && cr.Bool(repeatP) {
			// §6.6: "most scanners repeat within one day of the end of the
			// last scan" — a broad log-normal downtime with a sub-day
			// median, unlike the sharp 24 h institutional mode.
			gap := int64(cr.LogNormal(math.Log(float64(10*time.Hour)), 1.3))
			rstart := start + durNS + gap
			if rstart+durNS < s.Start+window {
				rr := cr.DeriveN("repeat", uint64(di))
				size := observe(perShard)
				s.specs = append(s.specs, &spec{
					kind:     kindScan,
					start:    rstart,
					interval: durNS / int64(size),
					count:    size,
					ports:    d.ports,
					prober:   tools.NewProber(d.tool, base, rr.Derive("prober")),
					perm:     rng.NewFeistelPerm(uint64(s.Telescope.Size()), rr.Derive("perm")),
					jit:      rr.Derive("jitter"),
					jitSeed:  rr.Uint64(),
				})
				summaryCampaigns++
			}
		}
	}

	s.buildInstitutional(r.Derive("institutional"), instBudget, minSize, nCampaigns, observe)
	s.buildBackground(r.Derive("background"), summaryCampaigns)
	s.buildBackscatter(r.Derive("backscatter"), totalBudget)
	s.buildOtherProto(r.Derive("otherproto"), totalBudget)
	return nil
}

// buildOtherProto adds the non-TCP slice of Internet background radiation:
// ICMP echo sweeps and UDP service probes, together ~2% of arriving
// packets. The telescope's TCP/SYN filter must drop them (§3.1: TCP far
// dominates in practice, and the study keeps only SYNs).
func (s *Scenario) buildOtherProto(r *rng.Rand, totalBudget float64) {
	udpPorts := [][]uint16{{1900}, {53}, {123}, {161, 1604}}
	per := int(totalBudget * 0.01 / 4)
	if per < 10 {
		per = 10
	}
	mk := func(i int, kind specKind, ports []uint16) {
		br := r.DeriveN("op", uint64(i))
		src, _ := s.Registry.RandomIPOfType(br, inetmodel.TypeHosting)
		dur := int64(time.Hour) * int64(6+br.Intn(100))
		if dur >= s.WindowNanos {
			dur = s.WindowNanos / 2
		}
		s.specs = append(s.specs, &spec{
			kind:     kind,
			start:    s.Start + br.Int63n(s.WindowNanos-dur),
			interval: dur / int64(per),
			count:    per,
			ports:    ports,
			victim:   src,
			perm:     rng.NewFeistelPerm(uint64(s.Telescope.Size()), br.Derive("perm")),
			jit:      br.Derive("jitter"),
			jitSeed:  br.Uint64(),
		})
	}
	for i, ports := range udpPorts {
		mk(i, kindUDPProbe, ports)
	}
	for i := 0; i < 4; i++ {
		mk(100+i, kindICMPSweep, nil)
	}
}

// buildInstitutional spreads the institutional packet budget over the
// known-scanner roster proportionally to each org's real-world footprint
// (ports × sources), with daily recurrence for the orgs that rescan daily.
func (s *Scenario) buildInstitutional(r *rng.Rand, budget float64, minSize, nCampaigns int, observe func(int) int) {
	prof := s.Profile
	orgs := s.Registry.Orgs()
	day := int64(24 * time.Hour)

	var weights []float64
	var active []int
	var total float64
	for id, org := range orgs {
		p := org.PortsInYear(prof.Year)
		if p == 0 {
			continue
		}
		w := float64(p) * float64(org.Sources)
		weights = append(weights, w)
		active = append(active, id)
		total += w
	}
	if total == 0 || budget <= 0 {
		return
	}

	for k, id := range active {
		org := orgs[id]
		orgR := r.Derive(org.Name)
		orgBudget := budget * weights[k] / total

		// Paper-scale scan count of the org in this window, shrunk by the
		// simulation scale and by an activity factor so earlier years see
		// proportionally fewer institutional scans (the orgs grew their
		// operations alongside their port coverage, §6.8).
		cadence := 4
		if org.Daily {
			cadence = prof.Days
		}
		// Institutional scans are ~7.45% of all campaigns (Table 2); the
		// roster splits that share by footprint (PortsInYear × Sources, so
		// earlier years see proportionally fewer institutional scans).
		// The packet-budget need below can only raise the count.
		totalC := int(float64(nCampaigns)*0.085*(weights[k]/total) + 0.5)
		if totalC < 1 {
			totalC = 1
		}
		// A campaign must finish within ~9 hours so daily scans close well
		// before the next day's run (the detector expiry is capped at
		// 12 h); campaigns the budget would make longer are split into
		// more campaigns instead.
		maxPer := int(org.SpeedPPS * float64(s.Telescope.Size()) * 32400 / math.Exp2(32))
		if maxPer < minSize {
			maxPer = minSize
		}
		if need := int(orgBudget/float64(maxPer)) + 1; need > totalC {
			totalC = need
		}
		// No artificial fill beyond the anchored count: the big scanners'
		// anchored shares already give them a (near-)daily cadence, and
		// smaller orgs spread their fewer campaigns via strideDays below.
		// Source pool: sources scan on a strict daily cadence (the Fig. 6
		// institutional mode) via round-robin day assignment below; the
		// ceiling division guarantees no source is assigned two scans on
		// one day.
		nSrc := (totalC + cadence - 1) / cadence
		perCampaign := int(orgBudget / float64(totalC))
		if perCampaign < minSize {
			perCampaign = minSize
		}
		if perCampaign > maxPer {
			perCampaign = maxPer
		}

		// The org's port set: the first PortsInYear values of a stable
		// per-org permutation, so consecutive years nest (Figs. 9/10).
		nPorts := org.PortsInYear(prof.Year)
		pp := rng.NewFeistelPerm(65536, rng.New(s.cfg.Seed).Derive("orgports/"+org.Name))
		ports := make([]uint16, nPorts)
		for i := range ports {
			ports[i] = uint16(pp.Apply(uint64(i)))
		}

		srcPool := make([]uint32, nSrc)
		for i := range srcPool {
			srcPool[i] = s.Registry.OrgIP(orgR, id)
		}
		// Budget-limited orgs cannot scan every single day; they spread
		// their campaigns evenly over the window (every strideDays days)
		// instead of going dark after the first weeks. The big daily
		// scanners have totalC >= Days and keep a strict daily cadence.
		strideDays := 1
		if perSrc := (totalC + nSrc - 1) / nSrc; perSrc < prof.Days {
			strideDays = prof.Days / perSrc
			if strideDays < 1 {
				strideDays = 1
			}
		}
		portCursor := 0
		durNS := int64(float64(perCampaign) * math.Exp2(32) /
			(float64(s.Telescope.Size()) * org.SpeedPPS) * 1e9)
		if durNS < int64(time.Second) {
			durNS = int64(time.Second)
		}
		if durNS > day*8/10 {
			durNS = day * 8 / 10
		}
		for c := 0; c < totalC; c++ {
			sr := orgR.DeriveN("spec", uint64(c))
			src := srcPool[c%nSrc]
			var start int64
			if org.Daily {
				// Round-robin over sources; consecutive campaigns of one
				// source land strideDays apart, covering the full window.
				dayIdx := ((c / nSrc) * strideDays) % prof.Days
				start = s.Start + int64(dayIdx)*day + sr.Int63n(day/12)
			} else {
				start = s.Start + sr.Int63n(s.WindowNanos-durNS+1)
			}
			// Key service ports are revisited in every scan; the full
			// port walk continues from the cursor.
			var priority []uint16
			if sr.Bool(0.5) {
				priority = append(priority, 443)
			}
			if sr.Bool(0.3) {
				priority = append(priority, 3390)
			}
			if sr.Bool(0.15) {
				priority = append(priority, 80)
			}
			observed := observe(perCampaign)
			sp := &spec{
				kind:     kindScan,
				start:    start,
				interval: durNS / int64(observed),
				count:    observed,
				ports:    ports,
				portOff:  portCursor,
				priority: priority,
				prober:   tools.NewProber(orgTool(org.Name, prof.Year), src, sr.Derive("prober")),
				perm:     rng.NewFeistelPerm(uint64(s.Telescope.Size()), sr.Derive("perm")),
				jit:      sr.Derive("jitter"),
				jitSeed:  sr.Uint64(),
				inst:     true,
			}
			portCursor = (portCursor + perCampaign) % len(ports)
			s.specs = append(s.specs, sp)
		}
	}
}

// buildBackground adds the sub-threshold noise sources that dominate the
// distinct-source counts (and the single-port CDF of Fig. 3).
func (s *Scenario) buildBackground(r *rng.Rand, campaignSources int) {
	prof := s.Profile
	// The distinct-source totals of Table 1 are dominated by sub-threshold
	// senders; campaign sources are a rounding error at paper scale, so the
	// background population is sized directly from the profile.
	_ = campaignSources
	nBg := int(prof.SourcesK * 1e3 * s.cfg.Scale)
	if nBg <= 0 {
		return
	}
	srcW := make([]float64, len(prof.PortRows))
	for i, row := range prof.PortRows {
		srcW[i] = row.Src
	}
	pick := rng.NewWeightedChoice(append(srcW, prof.TailSrc))
	typePick := rng.NewWeightedChoice([]float64{54.92, 37.33, 6.71, 0.87})
	typeOrder := []inetmodel.ScannerType{
		inetmodel.TypeResidential, inetmodel.TypeUnknown,
		inetmodel.TypeEnterprise, inetmodel.TypeHosting,
	}
	window := s.WindowNanos
	for i := 0; i < nBg; i++ {
		br := r.DeriveN("bg", uint64(i))
		var primary uint16
		if br.Bool(prof.FullRangeNoise) {
			primary = uint16(br.Uint32())
		} else if j := pick.Sample(br); j < len(prof.PortRows) {
			primary = prof.PortRows[j].Port
		} else {
			primary = prof.TailPorts[br.Intn(len(prof.TailPorts))]
		}
		ports := []uint16{primary}
		if !br.Bool(prof.SinglePortFrac) {
			extra := 1 + br.Intn(3)
			for e := 0; e < extra; e++ {
				if as := portAliases[primary]; len(as) > 0 && br.Bool(prof.PairRate) {
					ports = append(ports, as[br.Intn(len(as))])
				} else if j := pick.Sample(br); j < len(prof.PortRows) {
					ports = append(ports, prof.PortRows[j].Port)
				} else {
					ports = append(ports, prof.TailPorts[br.Intn(len(prof.TailPorts))])
				}
			}
		}
		typ := typeOrder[typePick.Sample(br)]
		country := prof.Countries[int(br.Uint32())%len(prof.Countries)].Code
		src, ok := s.Registry.RandomIP(br, country, typ)
		if !ok {
			src, _ = s.Registry.RandomIPOfType(br, typ)
		}
		tool := tools.ToolCustom
		if iotPorts[primary] && prof.Year >= 2016 && br.Bool(0.7) {
			tool = tools.ToolMirai
		}
		count := 1 + br.Intn(7)
		iv := window / int64(count+1)
		sp := &spec{
			kind:     kindBackground,
			start:    s.Start + br.Int63n(window-iv*int64(count)+1),
			interval: iv,
			count:    count,
			ports:    ports,
			prober:   tools.NewProber(tool, src, br.Derive("prober")),
			perm:     rng.NewFeistelPerm(uint64(s.Telescope.Size()), br.Derive("perm")),
			jit:      br.Derive("jitter"),
			jitSeed:  br.Uint64(),
		}
		s.specs = append(s.specs, sp)
	}
}

// buildBackscatter adds SYN/ACK reflections of spoofed-source DDoS attacks
// (§3.2): the telescope must filter these out.
func (s *Scenario) buildBackscatter(r *rng.Rand, totalBudget float64) {
	n := 8
	per := int(totalBudget * 0.015 / float64(n))
	if per < 10 {
		per = 10
	}
	for i := 0; i < n; i++ {
		br := r.DeriveN("bs", uint64(i))
		victim, _ := s.Registry.RandomIPOfType(br, inetmodel.TypeHosting)
		dur := int64(time.Hour) * int64(1+br.Intn(20))
		sp := &spec{
			kind:     kindBackscatter,
			start:    s.Start + br.Int63n(s.WindowNanos-dur),
			interval: dur / int64(per),
			count:    per,
			victim:   victim,
			jit:      br.Derive("jitter"),
			jitSeed:  br.Uint64(),
		}
		s.specs = append(s.specs, sp)
	}
}

// Run emits every probe of the scenario in non-decreasing time order.
// The emitted probes are the traffic *arriving* at the telescope; callers
// pass them through Telescope.Observe to apply the capture policy.
func (s *Scenario) Run(emit func(*packet.Probe)) Summary {
	var sum Summary
	h := make(specHeap, 0, len(s.specs))
	for _, sp := range s.specs {
		if sp.count <= 0 {
			continue
		}
		sp.idx = 0
		h = append(h, sp)
		switch sp.kind {
		case kindScan:
			sum.Campaigns++
		case kindBackground:
			sum.BackgroundSources++
		}
	}
	heap.Init(&h)

	for h.Len() > 0 {
		sp := h[0]
		p := sp.probeAt(s.Telescope, sp.idx)
		emit(&p)
		sum.Probes++
		if sp.inst {
			sum.InstitutionalProbes++
		}
		sp.idx++
		if sp.idx >= sp.count {
			heap.Pop(&h)
			continue
		}
		heap.Fix(&h, 0)
	}
	return sum
}
