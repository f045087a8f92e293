// Package core assembles the Aequus system: a Site bundles one
// installation's five services (PDS, USS, UMS, FCS, IRS) plus a local
// libaequus client, wired the way the paper deploys them — one full stack
// per cluster, exchanging only compact usage data with other sites through
// the USS layer.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/durability"
	"repro/internal/fairshare"
	"repro/internal/libaequus"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/services/fcs"
	"repro/internal/services/irs"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/usage"
	"repro/internal/vector"
)

// SiteConfig configures one Aequus installation.
type SiteConfig struct {
	// Name is the site name (used in usage records and identity mapping).
	Name string
	// Policy is the site's usage policy (required); never mutate it afterwards.
	Policy *policy.Tree
	// Clock provides time for every service (default wall clock).
	Clock simclock.Clock
	// BinWidth is the USS histogram interval (zero = uss.DefaultBinWidth).
	BinWidth time.Duration
	// Decay is the usage decay function (default none).
	Decay usage.Decay
	// Contribute controls whether this site serves usage to peers.
	Contribute bool
	// UseGlobal controls whether prioritization considers global usage
	// (local + exchanged) or local only — the partial-participation knob.
	UseGlobal bool
	// Projection selects the vector projection (default percental).
	Projection vector.Projection
	// Fairshare parameterizes the calculation (zero = fairshare.DefaultConfig).
	Fairshare fairshare.Config
	// UMSCacheTTL / FCSCacheTTL / LibCacheTTL are the update-delay
	// components (II) and (III).
	UMSCacheTTL, FCSCacheTTL, LibCacheTTL time.Duration
	// FCSSynchronousRefresh makes stale fairshare reads recompute in-line
	// instead of serving the previous snapshot while a background refresh
	// runs. Sim-clock testbeds set it for determinism; live sites leave it
	// false so readers never block on the UMS.
	FCSSynchronousRefresh bool
	// PolicyFetcher resolves PDS mount origins (optional).
	PolicyFetcher pds.Fetcher
	// ResolveEndpoint is the custom identity-resolution endpoint (optional;
	// without it, only explicitly stored mappings resolve).
	ResolveEndpoint irs.Endpoint
	// Metrics receives every service's instruments (default registry if
	// nil). Give each site its own registry to keep multi-site processes
	// (tests, the testbed) separable.
	Metrics *telemetry.Registry
	// PeerTimeout bounds each peer pull within an exchange round (zero =
	// only the round's own deadline applies).
	PeerTimeout time.Duration
	// PeerBreaker configures per-peer circuit breaking for the exchange
	// (zero Threshold disables breaking — every round dials every peer).
	PeerBreaker resilience.BreakerConfig
	// LibRetry bounds transient-failure retries of libaequus source lookups
	// (zero = single attempt).
	LibRetry resilience.RetryPolicy
	// LibStaleIfError lets libaequus serve expired cache entries when its
	// sources are unreachable after retries.
	LibStaleIfError bool
	// FCSSourceRetry bounds retries of the UMS fetch inside a fairshare
	// refresh (zero = single attempt).
	FCSSourceRetry resilience.RetryPolicy
	// Spans receives trace spans from every service of the site (nil
	// disables tracing). Share one recorder per process — or per simulated
	// federation — so cross-service traces land in one buffer.
	Spans *span.Recorder
	// Durable, when set, makes usage state survive restarts: every usage
	// mutation and policy edit is write-ahead-logged before applying. The
	// owner must call Recover once after NewSite to replay the log's
	// snapshot and WAL tail (commits block until then), then MarkReady on
	// the log after the first fairshare refresh.
	Durable *durability.Log
}

// Defaults returns the configuration a site is deployed with: aequusd's
// flag defaults, each written here or in the package default it composes,
// and nothing else. It sets no wiring (policy, policy fetcher, clock, spans,
// durable log) and no Lib* field: the daemon never uses Site.Lib.
func Defaults(site string) SiteConfig {
	return SiteConfig{
		Name:        site,
		BinWidth:    uss.DefaultBinWidth,
		Decay:       usage.ExponentialHalfLife{HalfLife: 7 * 24 * time.Hour},
		Contribute:  true,
		UseGlobal:   true,
		Projection:  vector.Percental{},
		Fairshare:   fairshare.DefaultConfig(),
		UMSCacheTTL: fcs.DefaultCacheTTL,
		FCSCacheTTL: fcs.DefaultCacheTTL,
		PeerTimeout: 5 * time.Second,
		PeerBreaker: resilience.BreakerConfig{Threshold: 5, Cooldown: resilience.DefaultBreakerCooldown},
		// Backoff starts at resilience.DefaultBaseDelay and doubles up to
		// resilience.DefaultMaxDelay.
		FCSSourceRetry: resilience.RetryPolicy{MaxAttempts: 3},
	}
}

// Site is a complete Aequus installation.
type Site struct {
	Name string
	PDS  *pds.Service
	USS  *uss.Service
	UMS  *ums.Service
	FCS  *fcs.Service
	IRS  *irs.Service
	// Lib is a libaequus client wired to this site's services, ready for a
	// co-located resource manager.
	Lib *libaequus.Client
	// Durable is the site's write-ahead log (nil when durability is off).
	Durable *durability.Log
}

// NewSite builds and wires a site.
func NewSite(cfg SiteConfig) (*Site, error) {
	if cfg.Name == "" {
		return nil, errors.New("core: site name required")
	}
	if cfg.Policy == nil {
		return nil, errors.New("core: policy required")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}

	p := pds.New(cfg.Policy, cfg.PolicyFetcher)
	if d := cfg.Durable; d != nil {
		// The config policy only seeds a site with no durable policy
		// history: Recover replays the stored one over it.
		p.OnChange(func(t *policy.Tree) {
			if d.Replaying() {
				// This SetPolicy IS a replayed snapshot frame or WAL
				// record; re-committing it would deadlock on the commit
				// lock Replay holds.
				return
			}
			data, err := policy.ToJSON(t)
			if err != nil {
				return
			}
			_ = d.Commit(&usage.Mutation{Kind: usage.MutPolicy, Blob: data}, nil)
		})
	}
	u := uss.New(uss.Config{
		Site:        cfg.Name,
		BinWidth:    cfg.BinWidth,
		Contribute:  cfg.Contribute,
		Clock:       cfg.Clock,
		Metrics:     cfg.Metrics,
		PeerTimeout: cfg.PeerTimeout,
		Breaker:     cfg.PeerBreaker,
		Spans:       cfg.Spans,
		Durable:     cfg.Durable,
	})

	m := ums.New(ums.Config{
		Decay:    cfg.Decay,
		CacheTTL: cfg.UMSCacheTTL,
		Clock:    cfg.Clock,
		Metrics:  cfg.Metrics,
		Spans:    cfg.Spans,
	}, u.View(cfg.UseGlobal))

	f := fcs.New(fcs.Config{
		Fairshare:          cfg.Fairshare,
		Projection:         cfg.Projection,
		CacheTTL:           cfg.FCSCacheTTL,
		SynchronousRefresh: cfg.FCSSynchronousRefresh,
		Clock:              cfg.Clock,
		Metrics:            cfg.Metrics,
		SourceRetry:        cfg.FCSSourceRetry,
		Spans:              cfg.Spans,
	}, p, m)

	i := irs.New()
	if cfg.ResolveEndpoint != nil {
		i.SetEndpoint(cfg.ResolveEndpoint)
	}

	lib := libaequus.New(libaequus.Config{
		Site:         cfg.Name,
		CacheTTL:     cfg.LibCacheTTL,
		Clock:        cfg.Clock,
		Metrics:      cfg.Metrics,
		Retry:        cfg.LibRetry,
		StaleIfError: cfg.LibStaleIfError,
		Spans:        cfg.Spans,
	}, f, i, u)

	return &Site{Name: cfg.Name, PDS: p, USS: u, UMS: m, FCS: f, IRS: i, Lib: lib, Durable: cfg.Durable}, nil
}

// Recover replays the durable log — the snapshot's frames, then the WAL
// tail — into the site's services, usage mutations through the USS and
// policies through the PDS, in the exact order they were committed before
// the crash. Until it returns, new commits block and exchange serving
// answers from the frozen pre-crash snapshot. No-op without durability.
func (s *Site) Recover() error {
	if s.Durable == nil {
		return nil
	}
	return s.Durable.Replay(func(m *usage.Mutation) error {
		if m.Kind == usage.MutPolicy {
			t, err := policy.FromJSON(m.Blob)
			if err != nil {
				return fmt.Errorf("core: replayed policy: %w", err)
			}
			return s.PDS.SetPolicy(t)
		}
		return s.USS.ApplyMutation(m)
	})
}

// SnapshotDurable rotates the WAL and writes a compacted snapshot of the
// site's usage state and policy. No-op without durability.
func (s *Site) SnapshotDurable() error {
	if s.Durable == nil {
		return nil
	}
	return s.Durable.Snapshot(func() (*durability.SnapshotState, error) {
		st := s.USS.CaptureState()
		data, err := policy.ToJSON(s.PDS.Policy())
		if err != nil {
			return nil, err
		}
		st.Policy = data
		return st, nil
	})
}

// ConnectPeer registers a remote USS to pull usage from.
func (s *Site) ConnectPeer(p uss.Peer) { s.USS.AddPeer(p) }

// Exchange pulls usage from all connected peers under ctx's deadline —
// how a periodic driver bounds a whole round even when individual peers
// hang.
func (s *Site) Exchange(ctx context.Context) error {
	_, err := s.USS.Exchange(ctx)
	return err
}

// Refresh invalidates the UMS cache and recomputes the fairshare tree —
// the periodic pre-calculation pass.
func (s *Site) Refresh() error {
	s.UMS.Invalidate()
	return s.FCS.Refresh()
}

// FullMesh connects every pair of sites for in-process usage exchange.
func FullMesh(sites []*Site) {
	for _, a := range sites {
		for _, b := range sites {
			if a != b {
				a.ConnectPeer(b.USS)
			}
		}
	}
}
