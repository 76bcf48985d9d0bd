package workload

import (
	"fmt"
	"time"

	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/inetmodel"
	"github.com/synscan/synscan/internal/telescope"
)

// paperTelescopeSize is the average monitored address count of §3.2.
const paperTelescopeSize = 71536

// Config parameterizes a simulated measurement year.
type Config struct {
	// Year selects the profile (2015–2024).
	Year int
	// Seed drives all randomness; equal seeds give equal packet streams.
	Seed uint64
	// Scale is the campaign down-scaling factor relative to the paper's
	// volumes (default 0.002 ≈ a few thousand campaigns per recent year).
	Scale float64
	// TelescopeSize is the simulated monitored-address count (default
	// 4096). The detector thresholds are rescaled consistently, so
	// qualification semantics match the paper's telescope.
	TelescopeSize int
	// TelescopeSeed selects which addresses the telescope monitors,
	// independent of the workload seed; zero means "use Seed". Two
	// scenarios differing only in TelescopeSeed model two vantage points
	// observing the same scanning ecosystem (§7).
	TelescopeSeed uint64
	// Disclosures injects vulnerability-disclosure events (Fig. 1).
	Disclosures []Disclosure
	// Outages marks capture gaps (§3.2: routing withdrawals and server
	// failures); traffic arriving inside them is dropped and counted.
	Outages []Outage
	// Registry may be shared across scenarios; built from Seed when nil.
	Registry *inetmodel.Registry
}

// Outage is one capture gap, in days from the window start.
type Outage struct {
	StartDay float64
	Days     float64
}

// Disclosure is a vulnerability-disclosure event: from Day onward, extra
// campaigns target Port, starting at PeakPerDay per day (paper scale) and
// decaying exponentially with the given e-folding time in days. §4.3 finds
// this interest dies down "in a matter of weeks".
type Disclosure struct {
	Day        int
	Port       uint16
	PeakPerDay float64
	DecayDays  float64
}

// Scenario is a fully materialized simulation of one measurement year.
type Scenario struct {
	// Profile is the year's calibration.
	Profile *Profile
	// Telescope is the simulated capture infrastructure.
	Telescope *telescope.Telescope
	// Registry is the synthetic Internet.
	Registry *inetmodel.Registry
	// DetectorConfig holds the §3.4 thresholds rescaled to the simulated
	// telescope size: core.ScaledConfig, the rescaling the replay tools
	// apply, so a simulated capture is cut into the same campaigns when
	// synalyze or syningest replay it.
	DetectorConfig core.Config
	// Start is the capture window start (ns since epoch, virtual clock).
	Start int64
	// WindowNanos is the capture window length.
	WindowNanos int64

	cfg   Config
	specs []*spec
}

// WindowStart pins each year's capture window to February 1, matching the
// paper's "first half of the year" collection without any wall-clock use.
// Exported so archive-backed analyses can reconstruct a year's window
// without building a scenario.
func WindowStart(year int) int64 {
	return time.Date(year, time.February, 1, 0, 0, 0, 0, time.UTC).UnixNano()
}

// NewScenario builds the year's telescope, registry and campaign specs.
func NewScenario(cfg Config) (*Scenario, error) {
	prof, err := ProfileFor(cfg.Year)
	if err != nil {
		return nil, err
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.002
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("workload: negative scale %v", cfg.Scale)
	}
	if cfg.TelescopeSize == 0 {
		cfg.TelescopeSize = 4096
	}
	if cfg.TelescopeSize < 64 {
		return nil, fmt.Errorf("workload: telescope size %d too small", cfg.TelescopeSize)
	}

	telSeed := cfg.TelescopeSeed
	if telSeed == 0 {
		telSeed = cfg.Seed
	}
	// ScaledConfig carries the §3.2 operational policy: ports 23 and 445
	// blocked at ingress from telescope.PolicyEpoch on. The gate is the
	// deployment date, not the profile year — windows before the epoch see
	// the ports, later ones do not.
	telCfg := telescope.ScaledConfig(telSeed, cfg.TelescopeSize)
	tel, err := telescope.New(telCfg)
	if err != nil {
		return nil, err
	}

	reg := cfg.Registry
	if reg == nil {
		reg = inetmodel.BuildRegistry(cfg.Seed)
	}

	s := &Scenario{
		Profile:        prof,
		Telescope:      tel,
		Registry:       reg,
		DetectorConfig: core.ScaledConfig(tel.Size()),
		Start:          WindowStart(cfg.Year),
		WindowNanos:    int64(prof.Days) * 24 * int64(time.Hour),
		cfg:            cfg,
	}
	day := float64(24 * time.Hour)
	for _, o := range cfg.Outages {
		tel.AddOutage(s.Start+int64(o.StartDay*day), s.Start+int64((o.StartDay+o.Days)*day))
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// Summary reports what a scenario generated.
type Summary struct {
	// Campaigns is the number of scan specs (including shards and
	// institutional daily scans, excluding background noise sources).
	Campaigns int
	// BackgroundSources is the number of sub-threshold noise sources.
	BackgroundSources int
	// Probes is the total number of packets emitted.
	Probes uint64
	// InstitutionalProbes is the share generated by the known-scanner
	// roster.
	InstitutionalProbes uint64

	// TwoPhaseCampaigns is the number of scan specs designated two-phase
	// (only set by RunReactive; Run leaves it zero).
	TwoPhaseCampaigns int
	// Responses counts the SYN-ACKs the reactive telescope synthesized.
	Responses uint64
	// Phase2Probes counts accepted phase-two segments (handshake ACKs and
	// payload pushes admitted past the SYN filter).
	Phase2Probes uint64
}
