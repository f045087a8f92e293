// Package identity implements Aequus user-identity management (Section
// III-B): the mapping between global grid user identities and site-local
// system accounts. Global fairshare requires that grid identities are
// consistently associated with jobs regardless of where they execute, while
// each site maps them to local accounts in its own way.
package identity

import (
	"errors"
	"fmt"
	"sync"
)

// Mapping associates a grid identity with a local account at one site.
type Mapping struct {
	// GridID is the global grid user identity (e.g. a DN or project id).
	GridID string `json:"gridId"`
	// Site is the site where the local account lives.
	Site string `json:"site"`
	// LocalUser is the system account on that site's cluster.
	LocalUser string `json:"localUser"`
}

// ErrNotFound is returned when no mapping exists.
var ErrNotFound = errors.New("identity: mapping not found")

// Table is a concurrent lookup table of identity mappings — the IRS backing
// store populated "by actively making a call to IRS to store the reverse
// mapping in a look up table".
type Table struct {
	mu      sync.RWMutex
	byLocal map[string]string // site+"\x00"+local -> grid
}

// NewTable returns an empty mapping table.
func NewTable() *Table {
	return &Table{byLocal: map[string]string{}}
}

func localKey(site, local string) string { return site + "\x00" + local }

// Store records a mapping, replacing any previous one for the same
// (site, local) pair.
func (t *Table) Store(m Mapping) error {
	if m.GridID == "" || m.LocalUser == "" {
		return errors.New("identity: empty grid id or local user")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byLocal[localKey(m.Site, m.LocalUser)] = m.GridID
	return nil
}

// ToGrid reverts the site mapping: local account -> grid identity.
func (t *Table) ToGrid(site, local string) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if g, ok := t.byLocal[localKey(site, local)]; ok {
		return g, nil
	}
	return "", fmt.Errorf("%w: %s@%s", ErrNotFound, local, site)
}
