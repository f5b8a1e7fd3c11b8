// Package checkpoint implements the durability envelope shared by the
// project's on-disk artefacts: a versioned, checksummed wrapper
// (Seal/Open, and SealAs/OpenAs for artefacts with their own format
// discriminator, such as the history-log manifest) around a payload
// whose schema belongs to its writer. The payload is JSON; a payload
// that implements Bulk also carries its large numeric arrays in a
// binary bulk section after the JSON, under the same checksum.
// Streaming ingestion sessions are the main user; their payload schema,
// and its version history, live with the ingest package that writes and
// reads it. The package imports only internal/canon of the module, for
// the header's spelling rule.
//
// The format guarantee is all-or-nothing: Open either yields the exact
// payload Seal wrote or a descriptive error. A truncated file fails the
// envelope's layout check or the checksum; a bit flip anywhere in the
// payload or bulk section fails the SHA-256 checksum; an envelope from a
// future (or unknown) format version is refused before the payload is
// looked at. Restore code therefore never sees — and can never apply — a
// partially valid session.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"github.com/tmerge/tmerge/internal/canon"
)

// Format is the envelope's format discriminator.
const Format = "tmerge/checkpoint"

// Version is the current version of the session checkpoint payload
// (ingest's session schema, whose version history is documented there).
// Readers refuse envelopes with a different version: the schema carries
// Kalman filter internals and RNG states whose meaning is pinned to the
// code that wrote them, so silent cross-version reads would break the
// replay guarantee in ways no checksum can catch.
const Version = 7

// The on-disk envelope is one JSON object with exactly this layout and
// no whitespace:
//
//	{"format":<string>,"version":<int>,"checksum":"<hex SHA-256>","payload":<payload>}
//
// — the bytes json.Marshal writes for a struct of those four fields in
// that order, with the payload held as a json.RawMessage. A payload that
// implements Bulk adds its bulk section's length after the checksum and
// the section itself after the closing brace:
//
//	{"format":<string>,"version":<int>,"checksum":"<hex>","bulk":<n>,"payload":<payload>}<n bytes>
//
// Seal writes the header by hand around the marshalled payload instead
// of marshalling that struct, which would re-scan (compact) the whole
// payload a second time; Open parses the fixed header with a
// canon.Reader, so the payload is scanned once, by the json.Unmarshal
// that decodes it, and the bulk section is located by its declared
// length, not by a scan.
// The checksum covers exactly the payload bytes followed by the bulk
// bytes. It does not cover the declared length, but a wrong length moves
// the split by whole bytes: either the byte before the section is not
// '}', or the checksum fails, or the split only shifts '}' bytes between
// the end of the payload and the section, which leaves the payload
// unbalanced or with trailing bytes, and it does not decode. Any other
// layout is refused as malformed.

const (
	headFormat   = `{"format":`
	headVersion  = `,"version":`
	headChecksum = `,"checksum":`
	headBulk     = `,"bulk":`
	headPayload  = `,"payload":`
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
	b, hasBulk := payload.(Bulk)
	var bulk []byte
	if hasBulk {
		bulk = b.AppendBulk(nil)
	}
	out := make([]byte, 0, len(headFormat)+len(quoted)+len(headVersion)+20+
		len(headChecksum)+2+2*sha256.Size+len(headBulk)+20+len(headPayload)+len(raw)+1+len(bulk))
	out = append(out, headFormat...)
	out = append(out, quoted...)
	out = append(out, headVersion...)
	out = strconv.AppendInt(out, int64(version), 10)
	out = append(out, headChecksum+`"`...)
	out = appendChecksum(out, raw, bulk)
	out = append(out, '"')
	if hasBulk {
		out = append(out, headBulk...)
		out = strconv.AppendInt(out, int64(len(bulk)), 10)
	}
	out = append(out, headPayload...)
	out = append(out, raw...)
	out = append(out, '}')
	out = append(out, bulk...)
	return out, nil
}

// Open verifies the envelope around data — format, version, checksum —
// and unmarshals the payload into out. An out that implements Bulk then
// reads the bulk section, which must be present and read to its end; any
// other out ignores a bulk section the checksum has verified. Any
// failure returns a descriptive error with out untouched by meaningful
// data; callers must not use out unless Open returns nil.
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
	if got := appendChecksum(nil, env.payload, env.bulk); string(got) != env.checksum {
		return fmt.Errorf("checkpoint: open: payload checksum mismatch (got %s, recorded %s): checkpoint is corrupt", got, env.checksum)
	}
	b, wantBulk := out.(Bulk)
	if wantBulk && env.bulk == nil {
		return errors.New("checkpoint: open: envelope has no bulk section")
	}
	if err := json.Unmarshal(env.payload, out); err != nil {
		return fmt.Errorf("checkpoint: open: payload does not decode: %w", err)
	}
	if wantBulk {
		r := Reader{buf: env.bulk}
		err := b.ReadBulk(&r)
		if err == nil {
			err = r.err
		}
		if err != nil {
			return fmt.Errorf("checkpoint: open: bulk section does not decode: %w", err)
		}
		if len(r.buf) > 0 {
			return fmt.Errorf("checkpoint: open: bulk section has %d trailing bytes", len(r.buf))
		}
	}
	return nil
}

// appendChecksum appends the hex SHA-256 of the payload bytes followed
// by the bulk section.
func appendChecksum(dst, payload, bulk []byte) []byte {
	h := sha256.New()
	h.Write(payload)
	h.Write(bulk)
	return hex.AppendEncode(dst, h.Sum(nil))
}

// parsedEnvelope is the header of an envelope plus its payload bytes,
// which alias the input.
type parsedEnvelope struct {
	format   string
	version  int
	checksum string
	// bulkLen is the declared length of the bulk section, -1 when the
	// envelope declares none.
	bulkLen int
	payload []byte
	// bulk is the bulk section, nil when the envelope declares none
	// (and non-nil, possibly empty, when it does).
	bulk []byte
}

// parseHeader reads the fixed header at the start of data. The payload
// it returns runs from the header's end to the end of data, closing
// brace and bulk section included. It checks only the layout.
func parseHeader(data []byte) (parsedEnvelope, error) {
	env := parsedEnvelope{bulkLen: -1}
	// The format is any string, quoted as json.Marshal quotes it: decode
	// the string the header starts with and require json.Marshal's
	// quoting of it (no "\/" for "/", say). Bytes that do not decode as
	// a string leave the format empty, and its quoting `""` then refuses
	// them.
	rest, _ := bytes.CutPrefix(data, []byte(headFormat))
	_ = json.NewDecoder(bytes.NewReader(rest)).Decode(&env.format)
	quoted, _ := json.Marshal(env.format) // a string always marshals
	r := canon.NewReader(data)
	r.Lit(headFormat)
	r.Lit(string(quoted))
	r.Lit(headVersion)
	env.version = r.Int()
	r.Lit(headChecksum)
	env.checksum = r.Str()
	if r.Opt(headBulk) {
		if env.bulkLen = r.Int(); env.bulkLen < 0 {
			return env, fmt.Errorf("bulk length %d is negative", env.bulkLen)
		}
	}
	r.Lit(headPayload)
	env.payload = r.Rest()
	return env, r.Err()
}

// parseEnvelope splits data into the fixed header fields, the payload
// and the bulk section without scanning the payload. It checks only the
// layout; the caller verifies format, version and checksum.
func parseEnvelope(data []byte) (parsedEnvelope, error) {
	env, err := parseHeader(data)
	if err != nil {
		return env, err
	}
	rest := env.payload
	brace := len(rest) - 1
	if env.bulkLen >= 0 {
		if brace -= env.bulkLen; brace < 0 {
			return env, fmt.Errorf("bulk length %d exceeds the %d bytes left", env.bulkLen, len(rest))
		}
		env.bulk = rest[brace+1:]
	}
	if brace < 0 || rest[brace] != '}' {
		return env, errors.New("unterminated envelope")
	}
	env.payload = rest[:brace]
	return env, nil
}

// UnverifiedPayload returns the bytes after the header of the envelope
// data: the payload, then whatever follows it (the closing brace and
// any bulk section), none of it checked. Only the header's layout is
// checked, not its format, version or checksum. It is for bytes the
// caller has just sealed itself, when it needs the start of the payload
// without paying for Open; bytes read back from storage may be corrupt
// and must go through Open.
func UnverifiedPayload(data []byte) ([]byte, error) {
	env, err := parseHeader(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: malformed envelope header: %w", err)
	}
	return env.payload, nil
}
