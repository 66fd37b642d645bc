package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags iteration over maps in simulation packages: Go
// randomizes map iteration order, so any such loop whose effects are
// order-sensitive feeds nondeterminism straight into rendered tables, cache
// keys, or replay state (the PR 4 vm.AddressSpace.Compact frame-assignment
// bug). A loop passes when it
//
//   - collects keys/values into a slice that is sorted later in the same
//     function (the sanctioned idiom),
//   - is provably order-insensitive — its body only performs commutative
//     integer accumulation, map writes with call-free right-hand sides,
//     deletes, or running-min/max updates — or
//   - carries a `//lukewarm:ordered <reason>` waiver.
//
// `maps.Keys`/`maps.Values` calls must likewise be wrapped in
// `slices.Sorted*` or waived.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flags order-sensitive iteration over maps in simulation packages",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) error {
	if !simulation(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncMapIter(pass, fd.Body)
		}
	}
	return nil
}

// checkFuncMapIter inspects one function body: every range-over-map inside
// it, plus unsorted maps.Keys/maps.Values calls. fnBody is also the region
// searched for the sort call that blesses a collect-then-sort loop.
func checkFuncMapIter(pass *Pass, fnBody *ast.BlockStmt) {
	sortedKeys := sortedArgs(pass, fnBody)
	ast.Inspect(fnBody, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if !isMap(pass.TypesInfo.Types[n.X].Type) {
				return true
			}
			if pass.waived(n.Pos(), "ordered") {
				return true
			}
			if collectsThenSorts(pass, n, fnBody) {
				return true
			}
			if orderInsensitiveBody(pass, n.Body) {
				return true
			}
			pass.Reportf(n.Pos(), "iteration over map %s is order-sensitive: "+
				"sort the keys first, or waive with //lukewarm:ordered <reason>",
				types.ExprString(n.X))
		case *ast.CallExpr:
			pkg, name, ok := pass.pkgFunc(n)
			if !ok || pkg != "maps" && pkg != "golang.org/x/exp/maps" {
				return true
			}
			if name != "Keys" && name != "Values" {
				return true
			}
			if sortedKeys[n] || pass.waived(n.Pos(), "ordered") {
				return true
			}
			pass.Reportf(n.Pos(), "maps.%s yields keys in random order: "+
				"wrap in slices.Sorted*, or waive with //lukewarm:ordered <reason>", name)
		}
		return true
	})
}

// sortedArgs records every expression passed directly to a slices.Sorted*
// call within body — the maps.Keys calls those bless.
func sortedArgs(pass *Pass, body *ast.BlockStmt) map[ast.Expr]bool {
	blessed := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := pass.pkgFunc(call)
		if !ok || pkg != "slices" {
			return true
		}
		switch name {
		case "Sorted", "SortedFunc", "SortedStableFunc":
			if len(call.Args) > 0 {
				blessed[ast.Unparen(call.Args[0])] = true
			}
		}
		return true
	})
	return blessed
}

// collectsThenSorts recognizes the sanctioned determinism idiom:
//
//	for k := range m { keys = append(keys, k) }
//	slices.Sort(keys)
//
// The loop body must be a single append into a slice variable, and a sort
// call referencing that variable must appear after the loop in the enclosing
// function body.
func collectsThenSorts(pass *Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	obj := pass.TypesInfo.Uses[lhs]
	if obj == nil {
		obj = pass.TypesInfo.Defs[lhs]
	}
	if obj == nil {
		return false
	}
	return sortedAfter(pass, fnBody, obj, rng.End())
}

// sortedAfter reports whether a sort.* or slices.Sort* call mentioning obj
// appears after pos within body.
func sortedAfter(pass *Pass, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		pkg, name, ok := pass.pkgFunc(call)
		if !ok {
			return true
		}
		isSort := pkg == "sort" || pkg == "slices" && (name == "Sort" ||
			name == "SortFunc" || name == "SortStableFunc" || name == "Reverse")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// orderInsensitiveBody reports whether every statement in the loop body is
// commutative with respect to iteration order.
func orderInsensitiveBody(pass *Pass, body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if !orderInsensitiveStmt(pass, s) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		// n++ / n-- on integers commutes; float increments do not round-trip.
		return isInteger(pass.TypesInfo.Types[s.X].Type)
	case *ast.AssignStmt:
		return orderInsensitiveAssign(pass, s)
	case *ast.ExprStmt:
		// delete(m, k) into any map commutes.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "delete"
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.IfStmt:
		return orderInsensitiveIf(pass, s)
	case *ast.EmptyStmt:
		return true
	}
	return false
}

// orderInsensitiveAssign accepts commutative integer accumulation
// (+= -= *= |= &= ^=), and plain assignment only into map elements with
// call-free right-hand sides — a call could carry state that makes the
// stored value depend on visit order (the Compact bug's alloc.Alloc()).
func orderInsensitiveAssign(pass *Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		for _, l := range s.Lhs {
			if !isInteger(pass.TypesInfo.Types[l].Type) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		for _, l := range s.Lhs {
			l = ast.Unparen(l)
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			ix, ok := l.(*ast.IndexExpr)
			if !ok || !isMap(pass.TypesInfo.Types[ix.X].Type) {
				return false
			}
		}
		for _, r := range s.Rhs {
			if !pass.callFree(r) {
				return false
			}
		}
		return true
	}
	return false
}

// orderInsensitiveIf accepts two shapes: a guard whose branches are
// themselves order-insensitive (conditional counting, including a comma-ok
// membership probe in the init clause), and the running min/max idiom
// `if v > best { best = v }`, where the assigned variable appears in the
// comparison.
func orderInsensitiveIf(pass *Pass, s *ast.IfStmt) bool {
	if s.Init != nil && !callFreeDefine(pass, s.Init) {
		return false
	}
	if !pass.callFree(s.Cond) {
		return false
	}
	cmp, isCmp := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if isCmp {
		switch cmp.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if asg := singleAssign(s.Body); asg != nil && s.Else == nil &&
				assignTargetInCond(pass, asg, cmp) {
				return true
			}
		}
	}
	if !orderInsensitiveBody(pass, s.Body) {
		return false
	}
	switch e := s.Else.(type) {
	case nil:
		return true
	case *ast.BlockStmt:
		return orderInsensitiveBody(pass, e)
	case *ast.IfStmt:
		return orderInsensitiveIf(pass, e)
	}
	return false
}

// callFreeDefine accepts an if-init of the form `x, ok := m[k]` (or any
// other `:=` whose right-hand sides are call-free): its bindings are
// per-iteration and cannot carry state across iterations.
func callFreeDefine(pass *Pass, s ast.Stmt) bool {
	asg, ok := s.(*ast.AssignStmt)
	if !ok || asg.Tok != token.DEFINE {
		return false
	}
	for _, r := range asg.Rhs {
		if !pass.callFree(r) {
			return false
		}
	}
	return true
}

// singleAssign returns the block's sole statement when it is a plain `=`
// with one target, else nil.
func singleAssign(b *ast.BlockStmt) *ast.AssignStmt {
	if len(b.List) != 1 {
		return nil
	}
	asg, ok := b.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 {
		return nil
	}
	return asg
}

// assignTargetInCond reports whether the assignment's target identifier is an
// operand of the comparison — the running-min/max shape.
func assignTargetInCond(pass *Pass, asg *ast.AssignStmt, cmp *ast.BinaryExpr) bool {
	id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		if sid, ok := ast.Unparen(side).(*ast.Ident); ok && pass.TypesInfo.Uses[sid] == obj {
			return true
		}
	}
	return false
}
