package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadPathSitesNameTheTable: the mutex-profile assertion matches
// frames by name, so a renamed or moved read-path function silently
// leaves the asserted set. Every entry must name a function declared in
// internal/core, spelled as a profile frame prints it, and the table's
// writers must not match.
func TestReadPathSitesNameTheTable(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "core")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{} // "core.(*T).m" and "core.f"
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, f, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := "core." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok {
						name = "core.(*" + id.Name + ")." + fn.Name.Name
					}
				}
			}
			declared[name] = true
		}
	}
	for _, site := range readPathSites {
		if !declared[site] {
			t.Errorf("readPathSites entry %s names no function in internal/core", site)
		}
		if !isReadPathSite("altrun/internal/" + site) {
			t.Errorf("a frame of %s is not matched as a read-path site", site)
		}
	}
	for _, writer := range []string{"add", "addBlock", "setFate", "subscribe", "unsubscribe", "dropBucket", "grow", "release", "each"} {
		site := "core.(*pidTable)." + writer
		if !declared[site] {
			t.Errorf("%s is not declared in internal/core", site)
		}
		if isReadPathSite("altrun/internal/" + site) {
			t.Errorf("writer %s matched as a read-path site", site)
		}
	}
	if isReadPathSite("altrun/internal/page.(*Table).Get") {
		t.Error("the page table's Get matched as a read-path site")
	}
}
