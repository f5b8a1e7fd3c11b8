package histlog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/video"
)

const (
	// ManifestFormat is the manifest envelope's format discriminator.
	ManifestFormat = "tmerge/histmanifest"
	// ManifestVersion is the manifest schema version.
	ManifestVersion = 1
	// ManifestFile is the manifest's file name inside a history directory.
	ManifestFile = "MANIFEST.json"
)

// SegmentInfo is one sealed segment's manifest entry: its header and
// footer restated, plus the file it lives in. The recorded checksum
// must match the file footer's — a segment file swapped in from another
// directory decodes cleanly but is still rejected.
type SegmentInfo struct {
	Index       int              `json:"index"`
	Kind        string           `json:"kind"`
	File        string           `json:"file"`
	Records     int              `json:"records"`
	StartWindow int              `json:"start_window"`
	EndWindow   int              `json:"end_window"`
	StartSeq    int              `json:"start_seq"`
	EndSeq      int              `json:"end_seq"`
	EndFrame    video.FrameIndex `json:"end_frame"`
	Checksum    string           `json:"checksum"`
}

// Manifest is the durable index of a history directory: every sealed
// segment in replay order. It is sealed in the checkpoint envelope
// (format ManifestFormat) and replaced atomically via rename, so a
// reader sees either the previous complete manifest or the next one.
// Anything not listed here — an unsealed tail, a segment file whose
// manifest write crashed — does not exist as far as replay is concerned.
// Segments and the manifest are written without fsync, so this holds
// across a process crash, not a power loss or kernel crash, after which
// a rename can reach the disk before the data it names.
type Manifest struct {
	// NextIndex is the index the next sealed segment will take. It only
	// grows, surviving truncation and compaction, so segment file names
	// are never reused across a session's lifetime.
	NextIndex int           `json:"next_index"`
	Segments  []SegmentInfo `json:"segments,omitempty"`
}

// Validate checks the manifest's structural invariants: at most one
// base segment and only in first position, a contiguous window/seq
// chain across raw segments, strictly increasing indexes, and sane
// per-segment bounds.
func (m *Manifest) Validate() error {
	if m.NextIndex < 0 {
		return fmt.Errorf("histlog: manifest next index %d is negative", m.NextIndex)
	}
	prevIndex := -1
	window, seq := 0, 0
	endFrame := video.FrameIndex(-1)
	for i, s := range m.Segments {
		if s.Index <= prevIndex {
			return fmt.Errorf("histlog: manifest segment indexes not strictly ascending at %d", s.Index)
		}
		if s.Index >= m.NextIndex {
			return fmt.Errorf("histlog: manifest segment index %d not below next index %d", s.Index, m.NextIndex)
		}
		prevIndex = s.Index
		if s.File == "" || s.File != filepath.Base(s.File) || strings.HasPrefix(s.File, ".") {
			return fmt.Errorf("histlog: manifest segment %d has unsafe file name %q", s.Index, s.File)
		}
		if len(s.Checksum) != 64 {
			return fmt.Errorf("histlog: manifest segment %d checksum is not hex SHA-256", s.Index)
		}
		switch s.Kind {
		case KindBase:
			if i != 0 {
				return fmt.Errorf("histlog: manifest base segment %d is not first", s.Index)
			}
			if s.StartWindow != 0 || s.StartSeq != 0 {
				return fmt.Errorf("histlog: manifest base segment %d must start at window 0, seq 0", s.Index)
			}
			if s.Records < 0 {
				return fmt.Errorf("histlog: manifest base segment %d has negative record count", s.Index)
			}
		case KindRaw:
			if s.StartWindow != window || s.StartSeq != seq {
				return fmt.Errorf("histlog: manifest segment %d starts at window %d seq %d, chain is at window %d seq %d", s.Index, s.StartWindow, s.StartSeq, window, seq)
			}
			if s.Records < 1 || s.EndWindow != s.StartWindow+s.Records {
				return fmt.Errorf("histlog: manifest raw segment %d covers windows [%d, %d) with %d records", s.Index, s.StartWindow, s.EndWindow, s.Records)
			}
		default:
			return fmt.Errorf("histlog: manifest segment %d has unknown kind %q", s.Index, s.Kind)
		}
		if s.EndWindow < s.StartWindow || s.EndSeq < s.StartSeq {
			return fmt.Errorf("histlog: manifest segment %d end cursors regress", s.Index)
		}
		if s.EndFrame < endFrame {
			return fmt.Errorf("histlog: manifest segment %d end frame %d regressed below %d", s.Index, s.EndFrame, endFrame)
		}
		window, seq, endFrame = s.EndWindow, s.EndSeq, s.EndFrame
	}
	return nil
}

// loadManifest reads and verifies dir's manifest. A missing manifest
// is an empty log, not an error.
func loadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("histlog: reading manifest: %w", err)
	}
	if err := checkpoint.OpenAs(data, ManifestFormat, ManifestVersion, &m); err != nil {
		return m, err
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// saveManifest atomically replaces dir's manifest: sealed envelope to a
// temp file, then rename over the real name.
func saveManifest(dir string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := checkpoint.SealAs(ManifestFormat, ManifestVersion, m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("histlog: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("histlog: publishing manifest: %w", err)
	}
	return nil
}
