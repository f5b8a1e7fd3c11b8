package ingress

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store persists per-stream checkpoints across daemon incarnations: the
// server writes every periodic checkpoint and every drain seal into it,
// and a restarted server resumes registrations from it. Implementations
// must be safe for concurrent use — periodic checkpoints arrive from
// worker goroutines while registrations read.
type Store interface {
	// Put stores the stream's latest checkpoint, replacing any previous
	// one.
	Put(stream string, data []byte) error
	// Get returns the stream's latest checkpoint; ok is false when the
	// store has none.
	Get(stream string) (data []byte, ok bool, err error)
	// Delete forgets the stream (a finished stream's checkpoint is
	// obsolete; re-registering it starts fresh). Deleting an absent
	// stream is not an error.
	Delete(stream string) error
}

// MemStore is the in-process Store: a mutex-guarded map. Suitable for
// tests and for deployments that accept losing resume state with the
// process.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Put implements Store.
func (s *MemStore) Put(stream string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.m[stream] = cp
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(stream string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[stream]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

// Delete implements Store.
func (s *MemStore) Delete(stream string) error {
	s.mu.Lock()
	delete(s.m, stream)
	s.mu.Unlock()
	return nil
}

// DirStore is the durable Store: one file per stream under a directory,
// written atomically (temp file + rename) so a process crash mid-write
// never leaves a torn checkpoint — the previous one survives intact.
// Nothing is fsynced, so that holds for a process crash, not for a power
// loss or kernel crash, after which the rename can reach the disk before
// the data it names. Stream IDs are restricted to a filename-safe
// alphabet; anything else is rejected rather than path-interpreted.
type DirStore struct {
	dir string
	mu  sync.Mutex // serialises writes per process; rename is the cross-process story
}

// NewDirStore creates (if needed) and wraps dir.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingress: checkpoint dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// path validates the stream ID and returns its checkpoint file path.
func (s *DirStore) path(stream string) (string, error) {
	if stream == "" || len(stream) > 128 {
		return "", fmt.Errorf("ingress: store: invalid stream id %q", stream)
	}
	for _, r := range stream {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return "", fmt.Errorf("ingress: store: stream id %q contains %q; allowed: [A-Za-z0-9._-]", stream, r)
		}
	}
	if strings.HasPrefix(stream, ".") {
		return "", fmt.Errorf("ingress: store: stream id %q may not start with a dot", stream)
	}
	return filepath.Join(s.dir, stream+".ckpt"), nil
}

// Put implements Store.
func (s *DirStore) Put(stream string, data []byte) error {
	p, err := s.path(stream)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "."+stream+"-*.tmp")
	if err != nil {
		return fmt.Errorf("ingress: store %s: %w", stream, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("ingress: store %s: %w", stream, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ingress: store %s: %w", stream, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("ingress: store %s: %w", stream, err)
	}
	return nil
}

// Get implements Store.
func (s *DirStore) Get(stream string) ([]byte, bool, error) {
	p, err := s.path(stream)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ingress: store %s: %w", stream, err)
	}
	return data, true, nil
}

// Delete implements Store.
func (s *DirStore) Delete(stream string) error {
	p, err := s.path(stream)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ingress: store %s: %w", stream, err)
	}
	return nil
}
