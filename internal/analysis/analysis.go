// Package analysis is tmergevet's engine: a project-specific static
// analyzer built purely on the standard library's go/parser, go/ast, and
// go/types (the module is dependency-free and must stay that way).
//
// It enforces the invariants that PR 2's bit-identical checkpoint/replay
// guarantee turned from style preferences into correctness requirements:
//
//   - determinism: no wall-clock reads or globally-seeded randomness in
//     replayed code, and no map-iteration order leaking into emitted
//     results (see CheckDeterminism);
//   - lock-discipline: no blocking device I/O (Submit/TrySubmit) while a
//     mutex is held (see CheckLockDiscipline);
//   - error-hygiene: no silently dropped errors from checkpoint
//     Seal/Open, write-path Close, or the Try* contract (see
//     CheckErrorHygiene);
//   - api-doc: every exported identifier of the root tmerge package is
//     documented (see CheckAPIDoc).
//
// PR 8 added the concurrency-safety suite, mechanizing the DESIGN.md
// §§10–13 serving/ingress invariants:
//
//   - goroutine-lifecycle: every go statement must have a provable
//     shutdown tie — context, done channel, WaitGroup, or bounded work
//     (see CheckGoroutineLifecycle);
//   - context-discipline: ctx-taking functions must thread their ctx to
//     blocking work; no context.Background()/TODO() outside main (see
//     CheckContextDiscipline);
//   - channel-hygiene: unbuffered sends need a select escape arm, close
//     only by the owning side, one close site per channel (see
//     CheckChannelHygiene);
//   - http-hygiene: servers/clients carry timeouts, handlers bound
//     request bodies (see CheckHTTPHygiene).
//
// A module-wide check keeps refactors from stranding code:
//
//   - unused: every exported package-level func, type, var and const of
//     an internal package is used by some non-test file of the module
//     (see CheckUnused).
//
// A finding can be suppressed in place with a directive comment
//
//	//tmerge:allow <check-name> <reason>
//
// on the flagged line or the line above it. The reason is mandatory and
// the check name must exist; a malformed directive is itself reported as
// a finding (check name "allow") and suppresses nothing.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
)

// Check names, in the order checkers run. These are the names findings
// carry, the names //tmerge:allow directives must use, and the catalog
// DESIGN.md §9 documents.
const (
	CheckDeterminismName        = "determinism"
	CheckLockName               = "lock-discipline"
	CheckErrorHygieneName       = "error-hygiene"
	CheckAPIDocName             = "api-doc"
	CheckGoroutineLifecycleName = "goroutine-lifecycle"
	CheckContextDisciplineName  = "context-discipline"
	CheckChannelHygieneName     = "channel-hygiene"
	CheckHTTPHygieneName        = "http-hygiene"
	CheckUnusedName             = "unused"
	checkAllowName              = "allow" // directive findings (malformed/unused); not suppressible
	allowDirectivePrefix        = "//tmerge:allow"
	allowDirectiveSpelling      = "//tmerge:allow <check-name> <reason>"
)

// KnownChecks lists every valid check name for //tmerge:allow directives.
var KnownChecks = []string{
	CheckDeterminismName,
	CheckLockName,
	CheckErrorHygieneName,
	CheckAPIDocName,
	CheckGoroutineLifecycleName,
	CheckContextDisciplineName,
	CheckChannelHygieneName,
	CheckHTTPHygieneName,
	CheckUnusedName,
}

// Finding is one rule violation at one source position.
type Finding struct {
	File    string `json:"file"` // module-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the finding in the tool's line format:
// file:line: [check-name] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// sortFindings orders findings by file, line, column, then check name.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// WriteText writes findings one per line in the file:line: [check] message
// format.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes findings as line-delimited JSON, one object per line —
// the -json output mode consumed by CI annotation tooling.
func WriteJSON(w io.Writer, fs []Finding) error {
	enc := json.NewEncoder(w)
	for _, f := range fs {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return nil
}

// Run executes every checker over every package, applies //tmerge:allow
// suppressions, reports malformed and unused directives, and returns the
// surviving findings sorted by position. CheckAPIDoc runs only on the
// module's root package (where the public surface lives). CheckUnused
// needs every package that could use an identifier, so it runs only
// when the module root is among pkgs, as in tmergevet's default ./... .
func Run(pkgs []*Package) []Finding {
	var all []Finding
	var refs map[string]bool
	for _, p := range pkgs {
		if p.IsModuleRoot() {
			refs = References(pkgs)
		}
	}
	for _, p := range pkgs {
		var fs []Finding
		fs = append(fs, CheckDeterminism(p)...)
		fs = append(fs, CheckLockDiscipline(p)...)
		fs = append(fs, CheckErrorHygiene(p)...)
		fs = append(fs, CheckGoroutineLifecycle(p)...)
		fs = append(fs, CheckContextDiscipline(p)...)
		fs = append(fs, CheckChannelHygiene(p)...)
		fs = append(fs, CheckHTTPHygiene(p)...)
		if p.IsModuleRoot() {
			fs = append(fs, CheckAPIDoc(p)...)
		}
		if refs != nil {
			fs = append(fs, CheckUnused(p, refs)...)
		}
		allowed, malformed := p.directives()
		fs = filterAllowed(fs, allowed)
		fs = append(fs, malformed...)
		fs = append(fs, unusedDirectives(allowed)...)
		all = append(all, fs...)
	}
	sortFindings(all)
	return all
}

// directiveKey identifies one suppressible (file, line, check) site.
type directiveKey struct {
	file  string
	line  int
	check string
}

// directiveSite is one valid //tmerge:allow directive plus whether it
// suppressed anything this run. A directive that suppresses nothing is
// stale and is itself reported, so suppressions can't rot silently after
// the code they excused moves or gets fixed.
type directiveSite struct {
	col  int
	used bool
}

// directives scans the package's comments for //tmerge:allow directives.
// It returns the valid suppressions (keyed by file/line/check, tracking
// use) and a finding for every malformed directive (missing reason,
// unknown check name).
func (p *Package) directives() (map[directiveKey]*directiveSite, []Finding) {
	allowed := make(map[directiveKey]*directiveSite)
	var malformed []Finding
	known := make(map[string]bool, len(KnownChecks))
	for _, c := range KnownChecks {
		known[c] = true
	}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok, problem := parseAllowDirective(c.Text, func(name string) bool { return known[name] })
				if !ok && problem == "" {
					continue // not a directive at all
				}
				pos := p.Position(c.Slash)
				if !ok {
					malformed = append(malformed, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   checkAllowName,
						Message: problem,
					})
					continue
				}
				allowed[directiveKey{pos.Filename, pos.Line, d.Check}] = &directiveSite{col: pos.Column}
			}
		}
	}
	return allowed, malformed
}

// filterAllowed drops findings covered by a valid directive on the same
// line or the line directly above, marking each matched directive used.
func filterAllowed(fs []Finding, allowed map[directiveKey]*directiveSite) []Finding {
	if len(allowed) == 0 {
		return fs
	}
	out := fs[:0]
	for _, f := range fs {
		if d := allowed[directiveKey{f.File, f.Line, f.Check}]; d != nil {
			d.used = true
			continue
		}
		if d := allowed[directiveKey{f.File, f.Line - 1, f.Check}]; d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	return out
}

// unusedDirectives reports every valid directive that suppressed nothing:
// either the violation it excused was fixed, or it was written against the
// wrong check. Stale suppressions must be removed so the audit trail of
// deliberate exceptions stays truthful.
func unusedDirectives(allowed map[directiveKey]*directiveSite) []Finding {
	var stale []directiveKey
	for k, d := range allowed {
		if !d.used {
			stale = append(stale, k)
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.check < b.check
	})
	var out []Finding
	for _, k := range stale {
		out = append(out, Finding{
			File: k.file, Line: k.line, Col: allowed[k].col,
			Check: checkAllowName,
			Message: fmt.Sprintf("directive suppresses nothing: no %q finding on this line or the line below — stale suppressions must be removed",
				k.check),
		})
	}
	return out
}

// finding builds a Finding at a node's position.
func (p *Package) finding(pos token.Pos, check, format string, args ...any) Finding {
	ps := p.Position(pos)
	return Finding{
		File: ps.Filename, Line: ps.Line, Col: ps.Column,
		Check: check, Message: fmt.Sprintf(format, args...),
	}
}

// inspectFunctions applies fn to every function body in the package —
// top-level declarations and, through ast.Inspect, the function literals
// nested inside them. decl is the enclosing declaration (for receiver
// context); it is the same *ast.FuncDecl for a literal nested within one.
func (p *Package) inspectFunctions(fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd, fd.Body)
		}
	}
}
