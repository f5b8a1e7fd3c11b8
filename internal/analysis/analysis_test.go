package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// loadTestdata loads one seeded-violation package from testdata/src.
// The go tool ignores testdata directories in wildcard patterns, so the
// packages can hold deliberate violations without tripping the real
// tmergevet run over ./... .
func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loading testdata/%s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

var wantMarker = regexp.MustCompile(`// want ([a-z-]+)`)

// wantedLines scans a testdata source file for "// want <check>" markers
// and returns line -> expected check name.
func wantedLines(t *testing.T, relPath string) map[int]string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(relPath))
	if err != nil {
		t.Fatalf("reading %s: %v", relPath, err)
	}
	want := make(map[int]string)
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantMarker.FindStringSubmatch(line); m != nil {
			want[i+1] = m[1]
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s has no want markers", relPath)
	}
	return want
}

// checkGolden compares findings against the file's want markers.
func checkGolden(t *testing.T, relPath string, fs []Finding, want map[int]string) {
	t.Helper()
	got := make(map[int]string)
	for _, f := range fs {
		if !strings.HasSuffix(f.File, relPath) {
			t.Errorf("finding in unexpected file: %v", f)
			continue
		}
		if prev, dup := got[f.Line]; dup && prev != f.Check {
			t.Errorf("line %d flagged by both %s and %s", f.Line, prev, f.Check)
		}
		got[f.Line] = f.Check
	}
	for line, check := range want {
		if got[line] != check {
			t.Errorf("line %d: want [%s] finding, got %q", line, check, got[line])
		}
	}
	for line, check := range got {
		if want[line] == "" {
			t.Errorf("line %d: unexpected [%s] finding", line, check)
		}
	}
}

func TestCheckDeterminismGolden(t *testing.T) {
	p := loadTestdata(t, "determ")
	rel := "testdata/src/determ/determ.go"
	checkGolden(t, rel, CheckDeterminism(p), wantedLines(t, rel))
}

func TestCheckLockDisciplineGolden(t *testing.T) {
	p := loadTestdata(t, "locks")
	rel := "testdata/src/locks/locks.go"
	checkGolden(t, rel, CheckLockDiscipline(p), wantedLines(t, rel))
}

func TestCheckErrorHygieneGolden(t *testing.T) {
	p := loadTestdata(t, "errhygiene")
	rel := "testdata/src/errhygiene/errhygiene.go"
	checkGolden(t, rel, CheckErrorHygiene(p), wantedLines(t, rel))
}

func TestCheckAPIDocGolden(t *testing.T) {
	p := loadTestdata(t, "apidoc")
	fs := CheckAPIDoc(p)
	flagged := make(map[string]bool)
	for _, f := range fs {
		if f.Check != CheckAPIDocName {
			t.Errorf("unexpected check %q in %v", f.Check, f)
		}
		// Message shape: "exported <kind> <Name> has no doc comment...".
		fields := strings.Fields(f.Message)
		if len(fields) < 3 {
			t.Fatalf("unparseable message %q", f.Message)
		}
		flagged[fields[2]] = true
	}
	want := []string{
		"Undocumented", "UndocumentedType",
		"GroupedUndocumented", "GroupedVarUndocumented",
	}
	for _, name := range want {
		if !flagged[name] {
			t.Errorf("expected %s to be flagged; findings: %v", name, fs)
		}
	}
	if len(flagged) != len(want) {
		t.Errorf("flagged %v, want exactly %v", flagged, want)
	}
}

// TestCheckUnusedGolden loads the unused package together with
// unusedref, its only user outside itself, so references from another
// package count and references from a _test.go file do not.
func TestCheckUnusedGolden(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/unused", "./testdata/src/unusedref")
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	refs := References(pkgs)
	rel := "testdata/src/unused/unused.go"
	var fs []Finding
	for _, p := range pkgs {
		fs = append(fs, CheckUnused(p, refs)...)
	}
	checkGolden(t, rel, fs, wantedLines(t, rel))
}

// TestAllowSuppression drives Run over the allow package: valid
// directives (line-above and same-line forms) must suppress, malformed
// directives (missing reason, unknown check) must surface as "allow"
// findings while the violations beneath them stay flagged, and a valid
// directive for the wrong check must not suppress — and is itself
// reported as a stale (unused) suppression.
func TestAllowSuppression(t *testing.T) {
	p := loadTestdata(t, "allow")
	fs := Run([]*Package{p})

	rel := "testdata/src/allow/allow.go"
	want := wantedLines(t, rel)
	var determinism, allow []Finding
	for _, f := range fs {
		switch f.Check {
		case CheckDeterminismName:
			determinism = append(determinism, f)
		case checkAllowName:
			allow = append(allow, f)
		default:
			t.Errorf("unexpected finding %v", f)
		}
	}
	if len(allow) != 3 {
		t.Fatalf("got %d directive findings, want 3 (two malformed, one stale): %v", len(allow), allow)
	}
	if !strings.Contains(allow[0].Message, "no reason") {
		t.Errorf("first malformed directive should complain about the missing reason: %v", allow[0])
	}
	if !strings.Contains(allow[1].Message, `unknown check "speling"`) {
		t.Errorf("second malformed directive should name the unknown check: %v", allow[1])
	}
	if !strings.Contains(allow[2].Message, "suppresses nothing") {
		t.Errorf("wrong-check directive should be reported as stale: %v", allow[2])
	}
	got := make(map[int]bool)
	for _, f := range determinism {
		got[f.Line] = true
	}
	for line, check := range want {
		if check == CheckDeterminismName && !got[line] {
			t.Errorf("line %d: determinism finding should have survived", line)
		}
	}
	if len(determinism) != 3 {
		t.Errorf("got %d surviving determinism findings, want 3 (two valid suppressions): %v",
			len(determinism), determinism)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []Finding{
		{File: "a/b.go", Line: 3, Col: 7, Check: CheckDeterminismName, Message: "time.Now reads the wall clock"},
		{File: "c.go", Line: 12, Col: 1, Check: checkAllowName, Message: `directive with "quotes" and spaces`},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; lines != len(in) {
		t.Fatalf("want one JSON object per line, got %d lines for %d findings", lines, len(in))
	}
	out, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%v\nout=%v", in, out)
	}
}

// TestVetSelf runs the full pass over the analyzer and its driver: the
// tool must be clean under its own rules.
func TestVetSelf(t *testing.T) {
	pkgs, err := Load(".", "./...", "../../cmd/tmergevet")
	if err != nil {
		t.Fatalf("loading analyzer packages: %v", err)
	}
	if fs := Run(pkgs); len(fs) != 0 {
		for _, f := range fs {
			t.Errorf("vet-self finding: %v", f)
		}
	}
}

// TestFindingString pins the line format the tool prints and CI greps.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/core/merge.go", Line: 54, Col: 3,
		Check: CheckDeterminismName, Message: "order leak"}
	want := "internal/core/merge.go:54: [determinism] order leak"
	if got := f.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// ExampleWriteText is compile-checked documentation of the output shape.
func ExampleWriteText() {
	fs := []Finding{{File: "x.go", Line: 1, Check: "api-doc", Message: "exported function X has no doc comment"}}
	_ = WriteText(os.Stdout, fs)
	fmt.Println("done")
	// Output:
	// x.go:1: [api-doc] exported function X has no doc comment
	// done
}

// DecodeJSON reads findings written by WriteJSON (one JSON object per
// line; blank lines are skipped).
func DecodeJSON(r io.Reader) ([]Finding, error) {
	var out []Finding
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var f Finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			return nil, fmt.Errorf("analysis: bad finding line %q: %w", line, err)
		}
		out = append(out, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
