package perf

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// scan parses src and returns the well-formed hotpaths plus every grammar
// diagnostic hotpathsIn reported, rendered as "line: message".
func scan(t *testing.T, src string) ([]*Hotpath, []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var issues []string
	hot := hotpathsIn(fset, []*ast.File{f}, func(pos token.Pos, format string, args ...any) {
		issues = append(issues, fmt.Sprintf("%d: %s", fset.Position(pos).Line, fmt.Sprintf(format, args...)))
	})
	return hot, issues
}

func TestHotpathParsing(t *testing.T) {
	src := `package p

//lukewarm:hotpath noalloc,nobce the scan loop is the simulator's inner loop
func (c *Cache) locate(i int) int {
	return i
}
`
	hot, issues := scan(t, src)
	if len(issues) != 0 {
		t.Fatalf("unexpected issues: %v", issues)
	}
	if len(hot) != 1 {
		t.Fatalf("want 1 hotpath, got %d", len(hot))
	}
	h := hot[0]
	if h.Name != "(*Cache).locate" {
		t.Errorf("Name = %q, want (*Cache).locate", h.Name)
	}
	if !h.Invariants["noalloc"] || !h.Invariants["nobce"] || h.Invariants["inline"] {
		t.Errorf("Invariants = %v", h.Invariants)
	}
	if h.Reason != "the scan loop is the simulator's inner loop" {
		t.Errorf("Reason = %q", h.Reason)
	}
	if h.StartLine != 4 || h.EndLine != 6 {
		t.Errorf("line range = [%d,%d], want [4,6]", h.StartLine, h.EndLine)
	}
}

// TestHotpathGofmtForm checks the layout gofmt gives a doc comment that ends
// in a directive: prose, a bare "//" line, then the directive. The directive
// is still the group's last line, so it binds.
func TestHotpathGofmtForm(t *testing.T) {
	src := `package p

// f is documented prose.
//
//lukewarm:hotpath noalloc gofmt separates the directive from the prose
func f() {}
`
	hot, issues := scan(t, src)
	if len(issues) != 0 || len(hot) != 1 || hot[0].Name != "f" {
		t.Fatalf("gofmt form did not bind: hot=%v issues=%v", hot, issues)
	}
}

// TestHotpathGrammarDiagnostics pins the exact diagnostic for each edge case
// the directive grammar rejects.
func TestHotpathGrammarDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"unknown invariant",
			"package p\n\n//lukewarm:hotpath noallocs speed\nfunc f() {}\n",
			`3: unknown hotpath invariant "noallocs" on f (known: noalloc, noescape, inline, nobce)`,
		},
		{
			"missing reason",
			"package p\n\n//lukewarm:hotpath noalloc\nfunc f() {}\n",
			"3: //lukewarm:hotpath on f requires a reason after the invariant list; a bare annotation does not gate",
		},
		{
			"missing everything",
			"package p\n\n//lukewarm:hotpath\nfunc f() {}\n",
			"3: //lukewarm:hotpath on f is missing its invariant list (noalloc, noescape, inline, nobce) and reason",
		},
		{
			"wrong line",
			"package p\n\n//lukewarm:hotpath noalloc fast\n\nfunc f() {}\n",
			"3: //lukewarm:hotpath must sit directly above a function declaration",
		},
		{
			"not last doc line",
			"package p\n\n//lukewarm:hotpath noalloc fast\n// f is documented.\nfunc f() {}\n",
			"3: //lukewarm:hotpath must be the last line of f's doc comment, directly above the declaration",
		},
		{
			"duplicate",
			"package p\n\n//lukewarm:hotpath noalloc fast\n//lukewarm:hotpath nobce tight\nfunc f() {}\n",
			"4: duplicate //lukewarm:hotpath annotation on f: declare all invariants in one comma-separated list",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hot, issues := scan(t, tc.src)
			found := false
			for _, is := range issues {
				if is == tc.want {
					found = true
				}
			}
			if !found {
				t.Errorf("want diagnostic %q, got %v", tc.want, issues)
			}
			for _, h := range hot {
				t.Errorf("malformed annotation still produced hotpath %s", h.Name)
			}
		})
	}
}
