package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteEventLog writes events as line-delimited JSON, one MergeEvent per
// line — the same NDJSON convention as tmergevet findings and bench rows,
// so merge logs can be shipped, diffed, and replayed as plain text.
func WriteEventLog(w io.Writer, events []MergeEvent) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("core: encoding event log: %w", err)
		}
	}
	return nil
}

// ReadEventLog decodes a log written by WriteEventLog. Blank lines are
// skipped; anything else must be a valid MergeEvent, and the sequence
// numbers must be contiguous ascending from the first event's. A log
// starting at 0 (a complete log) can be handed to ReplayEvents; a suffix
// resumes an existing consumer cursor. The decoder is hardened against
// hostile input: oversized lines, malformed JSON, and events that violate
// the MergeEvent invariants are all rejected with descriptive errors.
func ReadEventLog(r io.Reader) ([]MergeEvent, error) {
	var out []MergeEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		var ev MergeEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("core: event log line %d does not decode: %w", line, err)
		}
		// More would report false before a stray '}' or ']': only EOF
		// proves the line held nothing else.
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("core: event log line %d has trailing content after the event", line)
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("core: event log line %d: %w", line, err)
		}
		if len(out) > 0 && ev.Seq != out[len(out)-1].Seq+1 {
			return nil, fmt.Errorf("core: event log line %d has seq %d after seq %d", line, ev.Seq, out[len(out)-1].Seq)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading event log: %w", err)
	}
	return out, nil
}
