package trackdb

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/tmerge/tmerge/internal/video"
)

// The on-disk schema: a flat list of tracks with their boxes. Appearance
// observations are not persisted — the store holds query metadata, and
// ReID features are recomputed (or re-cached) at ingestion time.

type jsonBox struct {
	ID    video.BBoxID     `json:"id"`
	Frame video.FrameIndex `json:"frame"`
	X     float64          `json:"x"`
	Y     float64          `json:"y"`
	W     float64          `json:"w"`
	H     float64          `json:"h"`
	Class video.ClassID    `json:"class,omitempty"`
	GT    video.ObjectID   `json:"gt"`
}

type jsonTrack struct {
	ID    video.TrackID `json:"id"`
	Boxes []jsonBox     `json:"boxes"`
}

type jsonStore struct {
	Tracks []jsonTrack `json:"tracks"`
}

// Save writes the store to path as gzip-compressed JSON, tracks ordered
// by ID for stable output.
func (s *Store) Save(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trackdb: save: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trackdb: save: %w", cerr)
		}
	}()
	gz := gzip.NewWriter(f)
	if err := s.Encode(gz); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("trackdb: save: %w", err)
	}
	return nil
}

// Encode writes the store to w as (uncompressed) JSON, tracks ordered by
// ID for stable output.
func (s *Store) Encode(w io.Writer) error {
	var out jsonStore
	ids := make([]video.TrackID, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	video.SortTrackIDs(ids)
	for _, id := range ids {
		t := s.byID[id]
		jt := jsonTrack{ID: t.ID}
		for _, b := range t.Boxes {
			jt.Boxes = append(jt.Boxes, jsonBox{
				ID: b.ID, Frame: b.Frame,
				X: b.Rect.X, Y: b.Rect.Y, W: b.Rect.W, H: b.Rect.H,
				Class: b.Class, GT: b.GTObject,
			})
		}
		out.Tracks = append(out.Tracks, jt)
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("trackdb: encode: %w", err)
	}
	return nil
}
