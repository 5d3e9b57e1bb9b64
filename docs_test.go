package altrun_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a repository path in prose: internal/…, cmd/…, apps/…
// or examples/…, not as the tail of a longer path segment.
var docPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_-])((?:internal|cmd|apps|examples)/[A-Za-z0-9_./-]*)`)

// TestDocumentedPathsExist: every internal/, cmd/, apps/ and examples/
// path README and DESIGN name is one the tree has, so a package renamed
// or deleted without its docs fails here. A name ending in .go or .choo
// must be that file; a name like apps/stm.TestX must be the package
// directory before the dot.
func TestDocumentedPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				seen++
				if msg := checkDocPath(m[1]); msg != "" {
					t.Errorf("%s:%d: %s %s", doc, i+1, m[1], msg)
				}
			}
		}
		if seen == 0 {
			t.Errorf("%s: no repository path found", doc)
		}
	}
}

// checkDocPath returns why p names nothing in the tree, or "".
func checkDocPath(p string) string {
	p = strings.TrimRight(p, ".,") // sentence punctuation, "internal/..."
	if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".choo") {
		if fi, err := os.Stat(p); err != nil || fi.IsDir() {
			return "is not a file"
		}
		return ""
	}
	// A dot in the last segment qualifies a Go name in the package:
	// apps/stm.TestLineageRetiresPerJob names the directory apps/stm.
	dir, last := filepath.Split(strings.TrimSuffix(p, "/"))
	if pkg, _, ok := strings.Cut(last, "."); ok {
		last = pkg
	}
	if fi, err := os.Stat(filepath.Join(dir, last)); err != nil || !fi.IsDir() {
		return "is not a directory"
	}
	return ""
}
