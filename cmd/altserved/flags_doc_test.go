package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// definedFlags parses main.go and returns every flag name it defines
// through a flag.<Type>("name", ...) call.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatalf("flag.%s name %s: %v", sel.Sel.Name, lit.Value, err)
		}
		names[name] = true
		return true
	})
	return names
}

// altservedCall finds an altserved invocation: the binary's name, after
// a path or the start of a word and before whitespace, so
// "`cmd/altserved` wraps" is prose and "/tmp/altserved -addr" a command.
var altservedCall = regexp.MustCompile("(?:^|[\\s/`\"'])altserved(?:\\s|$)")

// commandFlags returns the flags named on altserved command lines in
// text: shell continuation lines are joined, and a command ends at a
// backtick (inline code), a shell operator or a comment.
func commandFlags(text string) (lines int, flags []string) {
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		loc := altservedCall.FindStringIndex(line)
		if loc == nil {
			continue
		}
		lines++
		cmd := line[loc[1]:]
		if i := strings.IndexAny(cmd, "`&|;#)"); i >= 0 {
			cmd = cmd[:i]
		}
		for _, tok := range strings.Fields(cmd) {
			tok = strings.Trim(tok, `"'`)
			if len(tok) < 2 || tok[0] != '-' {
				continue
			}
			name := strings.TrimLeft(tok, "-")
			if i := strings.IndexByte(name, '='); i >= 0 {
				name = name[:i]
			}
			if name != "" && name[0] >= 'a' && name[0] <= 'z' {
				flags = append(flags, name)
			}
		}
	}
	return lines, flags
}

// TestDocumentedFlagsExist: every flag an altserved command line names
// in the README, DESIGN and the CI workflow is one main.go defines, so
// deleting a flag without its docs fails here.
func TestDocumentedFlagsExist(t *testing.T) {
	defined := definedFlags(t)
	if len(defined) == 0 {
		t.Fatal("found no flag definitions in main.go")
	}
	for _, doc := range []string{"../../README.md", "../../DESIGN.md", "../../.github/workflows/ci.yml"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines, flags := commandFlags(string(raw))
		if lines == 0 {
			t.Errorf("%s: no altserved command line found", doc)
		}
		for _, name := range flags {
			if !defined[name] {
				t.Errorf("%s names -%s on an altserved command line; main.go defines no such flag", doc, name)
			}
		}
	}
}
