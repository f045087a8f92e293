// Package pds implements the Policy Distribution Service: it manages the
// local site's usage policy and can mount sub-policies from other sources
// (which may be other PDS instances), keeping mounted subtrees refreshed.
//
// The service keeps the one policy.Tree it is given, never mutated (see
// package policy): Policy and Subtree hand it out as it is, and the mount
// operations swap in the tree policy's copy-on-write edits return, so an
// unchanged pointer means an unchanged policy.
package pds

import (
	"fmt"
	"sync"

	"repro/internal/policy"
)

// Fetcher retrieves a remote policy subtree by origin reference (typically a
// URL of another PDS), as a tree rooted at the subtree's node that carries
// the origins of the mounts inside it. Implementations live in the httpapi
// package; tests may use in-process fetchers.
type Fetcher func(origin string) (*policy.Tree, error)

// Service is a Policy Distribution Service instance.
type Service struct {
	mu    sync.RWMutex
	tree  *policy.Tree
	fetch Fetcher
	// mounts remembers mount-point path -> origin for refresh.
	mounts map[string]string
	// onChange, when set, is invoked after every successful SetPolicy with
	// the new tree. It runs OUTSIDE s.mu: the durability hook it carries
	// takes the WAL commit lock, which is also held while a snapshot
	// capture reads Policy() — invoking under s.mu would close a lock
	// cycle. Mount mutations do not fire it (mounted subtrees are
	// re-fetched from their origins, not replayed).
	onChange func(*policy.Tree)
}

// New creates a PDS that keeps initial (nil for an empty tree) uncopied.
func New(initial *policy.Tree, fetch Fetcher) *Service {
	if initial == nil {
		initial = policy.NewTree()
	}
	return &Service{
		tree:   initial,
		fetch:  fetch,
		mounts: map[string]string{},
	}
}

// Policy returns the current policy tree. It is shared: read-only.
func (s *Service) Policy() *policy.Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}

// SetPolicy replaces the whole local policy with t, which the service keeps
// without a copy. Mount records are cleared.
func (s *Service) SetPolicy(t *policy.Tree) error {
	if t == nil {
		return fmt.Errorf("pds: nil policy")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.tree = t
	s.mounts = map[string]string{}
	hook := s.onChange
	s.mu.Unlock()
	if hook != nil {
		hook(t)
	}
	return nil
}

// OnChange installs the post-SetPolicy hook (see the field comment for its
// locking contract). Installing replaces any previous hook.
func (s *Service) OnChange(fn func(*policy.Tree)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onChange = fn
}

// Subtree returns the policy's own node at path, with the origins of the
// mounts in it, as a tree rooted there (for serving other PDSs).
func (s *Service) Subtree(path string) (*policy.Tree, error) {
	return s.Policy().Subtree(path)
}

// Mount fetches the subtree served by origin and grafts it under parentPath
// with the given local share. The origin is remembered so RefreshMounts can
// re-pull policy updates.
func (s *Service) Mount(parentPath, name string, share float64, origin string) error {
	if s.fetch == nil {
		return fmt.Errorf("pds: no fetcher configured")
	}
	sub, err := s.fetch(origin)
	if err != nil {
		return fmt.Errorf("pds: fetching %s: %w", origin, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.tree.Mount(parentPath, name, share, sub, origin)
	if err != nil {
		return err
	}
	s.tree = next
	s.mounts[policy.JoinPath(append(policy.SplitPath(parentPath), name))] = origin
	return nil
}

// RefreshMounts re-fetches every remembered mount origin and replaces the
// mounted subtrees, propagating remote policy changes. A fetch that returns
// the subtree already mounted leaves the tree as it is. The first error is
// returned but all mounts are attempted.
func (s *Service) RefreshMounts() error {
	if s.fetch == nil {
		return nil
	}
	s.mu.RLock()
	type m struct{ path, origin string }
	var ms []m
	for p, o := range s.mounts {
		ms = append(ms, m{p, o})
	}
	s.mu.RUnlock()

	var firstErr error
	for _, mt := range ms {
		sub, err := s.fetch(mt.origin)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pds: refreshing %s: %w", mt.origin, err)
			}
			continue
		}
		s.mu.Lock()
		if s.mounts[mt.path] == mt.origin { // else a SetPolicy dropped it meanwhile
			var next *policy.Tree
			if next, err = s.tree.RefreshMount(mt.path, sub); err == nil {
				s.tree = next
			}
		}
		s.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
