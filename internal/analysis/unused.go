package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// References returns the package-level objects the non-test files of
// pkgs use, each keyed "import/path.Name". Packages are type-checked one
// by one against export data, so a use in another package resolves to a
// different types.Object than the definition; the key is what they
// share.
func References(pkgs []*Package) map[string]bool {
	refs := make(map[string]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if key, ok := objectKey(obj); ok {
				refs[key] = true
			}
		}
	}
	return refs
}

// objectKey returns the key of a package-level object, and false for
// anything else: locals, struct fields, methods (which belong to no
// scope) and universe objects.
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// CheckUnused flags the exported package-level funcs, types, vars and
// consts of an internal package that no non-test file in refs (from
// References over the whole module) uses — code a refactor stranded, or
// code kept alive only by its tests. Methods are out of scope: a method
// may exist only to satisfy an interface. A finding is fixed by
// deleting the identifier, by moving it into the _test.go file of the
// one package that uses it, or by a //tmerge:allow unused directive
// saying who needs it.
func CheckUnused(p *Package, refs map[string]bool) []Finding {
	if !strings.Contains(p.ImportPath, "/internal/") {
		return nil
	}
	var fs []Finding
	for _, file := range p.Files {
		for _, d := range file.Decls {
			var names []*ast.Ident
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = append(names, s.Names...)
					}
				}
			}
			for _, id := range names {
				obj := p.Info.Defs[id]
				key, ok := objectKey(obj)
				if !id.IsExported() || !ok || refs[key] {
					continue
				}
				kind := "const"
				switch obj.(type) {
				case *types.Func:
					kind = "func"
				case *types.TypeName:
					kind = "type"
				case *types.Var:
					kind = "var"
				}
				fs = append(fs, p.finding(id.Pos(), CheckUnusedName,
					"exported %s %s is used by no non-test file of the module: delete it, or move it into the _test.go file of the one package that uses it",
					kind, id.Name))
			}
		}
	}
	return fs
}
