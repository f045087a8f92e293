// Package irs implements the Identity Resolution Service: an auxiliary
// service that reverts the site-specific mapping from system user accounts
// back to grid user identities. Mappings come either from an explicit
// lookup table (populated by calls to the IRS) or from a custom mapping
// resolution endpoint queried with "a minimalist JSON based protocol".
package irs

import (
	"sync"

	"repro/internal/identity"
)

// Endpoint is a custom site-provided name-resolution backend (in production
// a small HTTP endpoint; in tests any function).
type Endpoint interface {
	// Resolve maps a local account at a site to a grid identity.
	Resolve(site, localUser string) (string, error)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(site, localUser string) (string, error)

// Resolve implements Endpoint.
func (f EndpointFunc) Resolve(site, localUser string) (string, error) {
	return f(site, localUser)
}

// Service is an Identity Resolution Service instance.
type Service struct {
	table *identity.Table

	mu       sync.RWMutex
	endpoint Endpoint
}

// New creates an IRS with an empty lookup table.
func New() *Service {
	return &Service{table: identity.NewTable()}
}

// SetEndpoint configures the fallback resolution endpoint.
func (s *Service) SetEndpoint(e Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoint = e
}

// Store records a reverse mapping in the lookup table.
func (s *Service) Store(m identity.Mapping) error { return s.table.Store(m) }

// Resolve maps (site, local account) to a grid identity: the lookup table
// first, then the custom endpoint (memoizing its answer).
func (s *Service) Resolve(site, localUser string) (string, error) {
	if g, err := s.table.ToGrid(site, localUser); err == nil {
		return g, nil
	}
	s.mu.RLock()
	ep := s.endpoint
	s.mu.RUnlock()
	if ep == nil {
		return "", identity.ErrNotFound
	}
	g, err := ep.Resolve(site, localUser)
	if err != nil {
		return "", err
	}
	_ = s.table.Store(identity.Mapping{GridID: g, Site: site, LocalUser: localUser})
	return g, nil
}
