package perf

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"lukewarm/internal/analysis"
)

// gcflags is the diagnostic recipe: -m=2 prints escape analysis and inlining
// verdicts with reasons, -d=defer says whether each defer is open-coded,
// stack- or heap-allocated, and -d=ssa/check_bce/debug=1 prints every bounds
// check the SSA pass could not eliminate. The Go build cache replays compiler
// output on cache hits, so repeated gate runs are as cheap as a null build.
const gcflags = "-m=2 -d=defer,ssa/check_bce/debug=1"

// GateDoc describes the compiler gate for usage and -list output.
const GateDoc = "verifies //lukewarm:hotpath invariants, and the callees of noalloc roots, against go build -gcflags='" + gcflags + "' diagnostics"

// cdiag is one parsed compiler diagnostic.
type cdiag struct {
	file      string // absolute path
	line, col int
	msg       string
}

// allocates reports whether d is a heap allocation: an escape or a move to
// the heap, or a defer record the runtime must heap-allocate. Constant
// strings escape into static data, not per-call heap memory (e.g. the message
// of an inlined panic), so they do not count.
func (d cdiag) allocates() bool {
	return strings.HasSuffix(d.msg, "escapes to heap") && !strings.HasPrefix(d.msg, `"`) ||
		strings.HasPrefix(d.msg, "moved to heap") ||
		d.msg == "heap-allocated defer"
}

// waiverDirective names the one perf waiver, written with a mandatory reason.
const waiverDirective = "hotalloc"

// waiver is one reasoned waiverDirective comment; used records whether it
// suppressed a compiler allocation finding.
type waiver struct {
	pos  token.Position
	file string // absolute path, as in cdiag
	used bool
}

// CompileCheck is the compiler-diagnostic gate: it recompiles every package
// in pkgs that carries //lukewarm:hotpath annotations (one `go build`
// invocation from moduleDir, which must be the module root) and verifies each
// annotated function's declared invariants against the compiler's escape,
// defer, inline, and bounds-check output. A noalloc root also covers every
// function it reaches inside its package (see reachableFrom) that does not
// declare noalloc itself; an allocation there is waived only by a
// hotalloc waiver on its line or the line above, and a waiver that
// suppresses nothing is itself a finding. Violations come back as
// diagnostics at the annotation's (or the stale waiver's) position, naming
// the offending compiler line; a non-nil error means the build itself failed.
func CompileCheck(moduleDir string, pkgs []*analysis.Package) ([]analysis.Diagnostic, error) {
	absModule, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	type annotated struct {
		pkg *analysis.Package
		hot []*Hotpath
	}
	var anns []annotated
	var dirs []string
	var waivers []*waiver
	for _, pkg := range pkgs {
		waivers = append(waivers, waiversIn(pkg)...)
		hot := hotpathsIn(pkg.Fset, pkg.Syntax, nil)
		if len(hot) == 0 {
			continue
		}
		absDir, err := filepath.Abs(pkg.Dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(absModule, absDir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("perf: package %s (%s) is outside module root %s", pkg.Path, pkg.Dir, absModule)
		}
		anns = append(anns, annotated{pkg, hot})
		dirs = append(dirs, "./"+filepath.ToSlash(rel))
	}

	var diags []analysis.Diagnostic
	if len(anns) > 0 {
		out, err := compile(absModule, dirs)
		if err != nil {
			return nil, err
		}
		byFile := parseDiagnostics(out, absModule)
		for _, ann := range anns {
			for _, h := range ann.hot {
				checkHotpath(ann.pkg, h, byFile[absPath(h.File)], absModule, &diags)
			}
			checkCallees(ann.pkg, ann.hot, byFile, waivers, absModule, &diags)
		}
	}
	for _, w := range waivers {
		if !w.used {
			diags = append(diags, analysis.Diagnostic{
				Pos:      w.pos,
				Analyzer: "perfgate",
				Message:  "stale //lukewarm:" + waiverDirective + " waiver: it suppresses no compiler allocation finding in a function reached from a noalloc hotpath; delete it",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// waiversIn collects the package's reasoned hotalloc waivers (a bare one
// waives nothing; hotdirective reports it).
func waiversIn(pkg *analysis.Package) []*waiver {
	var ws []*waiver
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := analysis.WaiverReason(c.Text, waiverDirective)
				if !ok || strings.TrimSpace(reason) == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ws = append(ws, &waiver{pos: pos, file: absPath(pos.Filename)})
			}
		}
	}
	return ws
}

func absPath(file string) string {
	if abs, err := filepath.Abs(file); err == nil {
		return abs
	}
	return file
}

// compile runs the diagnostic build. `go build` only applies unqualified
// -gcflags to the packages named on the command line, which is exactly the
// scoping the gate wants: dependencies compile silently.
func compile(moduleDir string, dirs []string) ([]byte, error) {
	args := append([]string{"build", "-gcflags=" + gcflags}, dirs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("perf: go build %s: %v\n%s", strings.Join(dirs, " "), err, out)
	}
	return out, nil
}

var diagLine = regexp.MustCompile(`^(.+?\.go):(\d+):(\d+): (.+)$`)

// parseDiagnostics splits the compiler's combined output into per-file
// diagnostics. Indented lines (escape-flow explanations) and <autogenerated>
// positions are skipped; -m=2 prints some verdicts once per inlining
// consideration, so duplicates are dropped.
func parseDiagnostics(out []byte, moduleDir string) map[string][]cdiag {
	byFile := map[string][]cdiag{}
	seen := map[cdiag]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == ' ' || line[0] == '\t' || line[0] == '#' {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(m[1], "<autogenerated>") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		d := cdiag{file, ln, col, strings.TrimSuffix(m[4], ":")}
		if seen[d] {
			continue
		}
		seen[d] = true
		byFile[d.file] = append(byFile[d.file], d)
	}
	return byFile
}

// relPos renders a compiler diagnostic's position relative to the module.
func relPos(d cdiag, moduleDir string) string {
	rel, err := filepath.Rel(moduleDir, d.file)
	if err != nil {
		rel = d.file
	}
	return fmt.Sprintf("%s:%d:%d", rel, d.line, d.col)
}

// checkHotpath verifies one annotation against the compiler diagnostics that
// landed in its file. The annotated body accepts no waiver.
func checkHotpath(pkg *analysis.Package, h *Hotpath, fileDiags []cdiag, moduleDir string, diags *[]analysis.Diagnostic) {
	report := func(format string, args ...any) {
		*diags = append(*diags, analysis.Diagnostic{
			Pos:      pkg.Fset.Position(h.Pos),
			Analyzer: "perfgate",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	// -m=2 describes one escape event twice ("moved to heap: x" and
	// "x escapes to heap" at the same position); fold them into one finding
	// per invariant per position.
	once := map[string]bool{}
	reportOnce := func(invariant string, d cdiag, format string, args ...any) {
		k := invariant + "@" + relPos(d, moduleDir)
		if once[k] {
			return
		}
		once[k] = true
		report(format, args...)
	}

	var inlinable, inlineVerdict bool
	var cannotInline cdiag
	for _, d := range fileDiags {
		if d.line == h.StartLine {
			if strings.HasPrefix(d.msg, "can inline ") {
				inlinable, inlineVerdict = true, true
			}
			if strings.HasPrefix(d.msg, "cannot inline ") {
				inlineVerdict = true
				cannotInline = d
			}
		}
		if d.line < h.StartLine || d.line > h.EndLine {
			continue
		}
		at := relPos(d, moduleDir)
		if h.Invariants["noalloc"] && d.allocates() {
			reportOnce("noalloc", d, "hotpath %s declares noalloc, but the compiler reports %s: %s", h.Name, at, d.msg)
		}
		if h.Invariants["noescape"] && strings.HasPrefix(d.msg, "moved to heap") {
			reportOnce("noescape", d, "hotpath %s declares noescape, but the compiler reports %s: %s", h.Name, at, d.msg)
		}
		if h.Invariants["nobce"] && (d.msg == "Found IsInBounds" || d.msg == "Found IsSliceInBounds") {
			reportOnce("nobce", d, "hotpath %s declares nobce, but a bounds check survives at %s (%s)", h.Name, at, d.msg)
		}
	}
	if h.Invariants["inline"] && !inlinable {
		if inlineVerdict {
			report("hotpath %s declares inline, but the compiler reports %s: %s", h.Name, relPos(cannotInline, moduleDir), cannotInline.msg)
		} else {
			report("hotpath %s declares inline, but the compiler issued no inlining verdict for it (is the declaration line annotated?)", h.Name)
		}
	}
}

// checkCallees extends each noalloc root in hot to the functions it reaches
// in its package that do not declare noalloc themselves: a compiler
// allocation in such a callee is a finding at the root's annotation unless a
// hotalloc waiver sits on its line or the line above. A callee that declares
// noalloc answers to its own annotation instead. Waivers that suppress a
// finding are marked used.
func checkCallees(pkg *analysis.Package, hot []*Hotpath, byFile map[string][]cdiag, waivers []*waiver, moduleDir string, diags *[]analysis.Diagnostic) {
	ownNoalloc := map[*ast.FuncDecl]bool{}
	for _, h := range hot {
		ownNoalloc[h.Decl] = h.Invariants["noalloc"]
	}
	waived := func(d cdiag) bool {
		hit := false
		for _, w := range waivers {
			if w.file == d.file && (w.pos.Line == d.line || w.pos.Line == d.line-1) {
				w.used, hit = true, true
			}
		}
		return hit
	}
	for _, h := range hot {
		if !h.Invariants["noalloc"] {
			continue
		}
		seen := map[cdiag]bool{}
		for _, fd := range reachableFrom(pkg.Syntax, pkg.TypesInfo, []*Hotpath{h}) {
			if ownNoalloc[fd] {
				continue
			}
			start, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
			for _, d := range byFile[absPath(start.Filename)] {
				if d.line < start.Line || d.line > end.Line || !d.allocates() || waived(d) {
					continue
				}
				// Fold -m=2's "moved to heap: x" / "x escapes to heap" pair.
				key := cdiag{file: d.file, line: d.line, col: d.col}
				if seen[key] {
					continue
				}
				seen[key] = true
				*diags = append(*diags, analysis.Diagnostic{
					Pos:      pkg.Fset.Position(h.Pos),
					Analyzer: "perfgate",
					Message: fmt.Sprintf("hotpath %s declares noalloc, but its callee %s allocates: the compiler reports %s: %s",
						h.Name, funcName(fd), relPos(d, moduleDir), d.msg),
				})
			}
		}
	}
}
