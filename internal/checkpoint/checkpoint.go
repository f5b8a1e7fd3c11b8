// Package checkpoint implements the durability envelope shared by the
// project's on-disk artefacts: a versioned, checksummed JSON wrapper
// (Seal/Open, and SealAs/OpenAs for artefacts with their own format
// discriminator, such as the history-log manifest) around a payload
// whose schema belongs to its writer. Streaming ingestion sessions are
// the main user; their payload schema, and its version history, live
// with the ingest package that writes and reads it.
//
// The format guarantee is all-or-nothing: Open either yields the exact
// payload Seal wrote or a descriptive error. A truncated file fails the
// envelope's layout check or the checksum; a bit flip anywhere in the
// payload fails the SHA-256 checksum; an envelope from a future (or
// unknown) format version is refused before the payload is looked at.
// Restore code therefore never sees — and can never apply — a partially
// valid session.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// Format is the envelope's format discriminator.
const Format = "tmerge/checkpoint"

// Version is the current version of the session checkpoint payload
// (ingest's session schema, whose version history is documented there).
// Readers refuse envelopes with a different version: the schema carries
// Kalman filter internals and RNG states whose meaning is pinned to the
// code that wrote them, so silent cross-version reads would break the
// replay guarantee in ways no checksum can catch.
const Version = 5

// The on-disk envelope is one JSON object with exactly this layout and
// no whitespace:
//
//	{"format":<string>,"version":<int>,"checksum":"<hex SHA-256>","payload":<payload>}
//
// — the bytes json.Marshal writes for a struct of those four fields in
// that order, with the payload held as a json.RawMessage. Seal writes
// the header by hand around the marshalled payload instead of
// marshalling that struct, which would re-scan (compact) the whole
// payload a second time; Open parses the fixed header by hand, so the
// payload is scanned once, by the json.Unmarshal that decodes it. The
// checksum covers exactly the payload bytes. Any other layout is
// refused as malformed.

const (
	headFormat   = `{"format":`
	headVersion  = `,"version":`
	headChecksum = `,"checksum":"`
	headPayload  = `","payload":`
)

// Seal marshals payload and wraps it in a versioned, checksummed
// envelope. The result is self-contained: Open needs nothing but the
// bytes.
func Seal(payload any) ([]byte, error) {
	return SealAs(Format, Version, payload)
}

// SealAs is Seal for other on-disk artefacts that reuse the envelope
// idiom (the history-log manifest, for one) under their own format
// discriminator and version. The result is self-contained: OpenAs needs
// nothing but the bytes.
func SealAs(format string, version int, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: seal %s: %w", format, err)
	}
	quoted, err := json.Marshal(format)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: seal %s: %w", format, err)
	}
	sum := sha256.Sum256(raw)
	out := make([]byte, 0, len(headFormat)+len(quoted)+len(headVersion)+20+
		len(headChecksum)+2*sha256.Size+len(headPayload)+len(raw)+1)
	out = append(out, headFormat...)
	out = append(out, quoted...)
	out = append(out, headVersion...)
	out = strconv.AppendInt(out, int64(version), 10)
	out = append(out, headChecksum...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, headPayload...)
	out = append(out, raw...)
	out = append(out, '}')
	return out, nil
}

// Open verifies the envelope around data — format, version, checksum —
// and unmarshals the payload into out. Any failure returns a descriptive
// error with out untouched by meaningful data; callers must not use out
// unless Open returns nil.
func Open(data []byte, out any) error {
	return OpenAs(data, Format, Version, out)
}

// OpenAs is Open for envelopes sealed by SealAs under a different format
// discriminator and version. The all-or-nothing guarantee is identical.
func OpenAs(data []byte, format string, version int, out any) error {
	env, err := parseEnvelope(data)
	if err != nil {
		return fmt.Errorf("checkpoint: open: malformed envelope (truncated or not a checkpoint): %w", err)
	}
	if env.format != format {
		return fmt.Errorf("checkpoint: open: format %q, want %q", env.format, format)
	}
	if env.version != version {
		return fmt.Errorf("checkpoint: open: unsupported version %d (this build reads version %d)", env.version, version)
	}
	sum := sha256.Sum256(env.payload)
	if got := hex.EncodeToString(sum[:]); got != string(env.checksum) {
		return fmt.Errorf("checkpoint: open: payload checksum mismatch (got %s, recorded %s): checkpoint is corrupt", got, env.checksum)
	}
	if err := json.Unmarshal(env.payload, out); err != nil {
		return fmt.Errorf("checkpoint: open: payload does not decode: %w", err)
	}
	return nil
}

// parsedEnvelope is the header of an envelope plus its payload bytes,
// which alias the input.
type parsedEnvelope struct {
	format   string
	version  int
	checksum []byte
	payload  []byte
}

// parseEnvelope splits data into the fixed header fields and the
// payload without scanning the payload. It checks only the layout; the
// caller verifies format, version and checksum.
func parseEnvelope(data []byte) (parsedEnvelope, error) {
	var env parsedEnvelope
	rest, ok := bytes.CutPrefix(data, []byte(headFormat))
	if !ok {
		return env, errors.New("no format field")
	}
	// The format is a JSON string: find its closing quote, skipping
	// escaped characters, let the decoder unescape it, and accept only
	// the quoting json.Marshal writes (no "\/" for "/", say).
	end := -1
	if len(rest) > 0 && rest[0] == '"' {
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
			} else if rest[i] == '"' {
				end = i + 1
				break
			}
		}
	}
	if end < 0 {
		return env, errors.New("format is not a string")
	}
	if err := json.Unmarshal(rest[:end], &env.format); err != nil {
		return env, fmt.Errorf("format: %w", err)
	}
	if quoted, _ := json.Marshal(env.format); !bytes.Equal(quoted, rest[:end]) {
		return env, fmt.Errorf("format %s is not quoted as %s", rest[:end], quoted)
	}
	if rest, ok = bytes.CutPrefix(rest[end:], []byte(headVersion)); !ok {
		return env, errors.New("no version field")
	}
	n := 0
	if len(rest) > 0 && rest[0] == '-' {
		n++
	}
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	v, err := strconv.Atoi(string(rest[:n]))
	// Only the canonical spelling json.Marshal writes: no leading
	// zeros, no "-0", no exponent.
	if err != nil || strconv.Itoa(v) != string(rest[:n]) {
		return env, fmt.Errorf("version %q is not an integer", rest[:n])
	}
	env.version = v
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(headChecksum)); !ok {
		return env, errors.New("no checksum field")
	}
	if len(rest) < 2*sha256.Size {
		return env, errors.New("checksum too short")
	}
	env.checksum, rest = rest[:2*sha256.Size], rest[2*sha256.Size:]
	if rest, ok = bytes.CutPrefix(rest, []byte(headPayload)); !ok {
		return env, errors.New("no payload field")
	}
	if len(rest) == 0 || rest[len(rest)-1] != '}' {
		return env, errors.New("unterminated envelope")
	}
	env.payload = rest[:len(rest)-1]
	return env, nil
}
