package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// StatReg guards the result-struct → table pipeline: every exported field of
// an exported `*Result`/`*Stats` struct must be reachable from one of the
// type's emitter methods (String, *Table*, *CSV*, *Write*, *Render*, *Row*),
// directly or through same-package helpers those emitters call. A field that
// is not reachable is a measurement the experiment collects and then
// silently drops from every rendered table — the golden harness cannot
// notice a column that never existed. Structs with no emitter methods are
// out of scope (plain counters). Waive an intentionally internal field with
// `//lukewarm:nostat <reason>`.
var StatReg = &Analyzer{
	Name: "statreg",
	Doc:  "result/stats struct fields must be reachable from their String/CSV emitters",
	Run:  runStatReg,
}

func runStatReg(pass *Pass) error {
	if !simulation(pass.Pkg.Path()) {
		return nil
	}
	graph := packageFuncDecls(pass)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if !strings.HasSuffix(name, "Result") && !strings.HasSuffix(name, "Stats") {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		checkStatStruct(pass, graph, named, st)
	}
	return nil
}

func isEmitterName(name string) bool {
	if name == "String" {
		return true
	}
	for _, part := range []string{"Table", "CSV", "Write", "Render", "Row"} {
		if strings.Contains(name, part) {
			return true
		}
	}
	return false
}

// packageFuncDecls maps every function/method object declared in the package
// to its syntax, so reachability can walk the package-local call graph.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

func checkStatStruct(pass *Pass, graph map[*types.Func]*ast.FuncDecl, named *types.Named, st *types.Struct) {
	// Seed the walk with the struct's emitter methods.
	var queue []*ast.FuncDecl
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if isEmitterName(m.Name()) {
			if decl := graph[m]; decl != nil {
				queue = append(queue, decl)
			}
		}
	}
	if len(queue) == 0 {
		return // no emitters: not a table-producing struct
	}

	// Fields of this struct, by canonical object.
	fields := map[types.Object]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = st.Field(i)
	}

	// BFS over the package-local call graph, collecting referenced fields.
	reached := map[types.Object]bool{}
	visited := map[*ast.FuncDecl]bool{}
	for len(queue) > 0 {
		decl := queue[0]
		queue = queue[1:]
		if visited[decl] || decl.Body == nil {
			continue
		}
		visited[decl] = true
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if _, isField := fields[obj]; isField {
				reached[obj] = true
			}
			if fn, ok := obj.(*types.Func); ok {
				if callee := graph[fn]; callee != nil && !visited[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || f.Anonymous() || reached[f] {
			continue
		}
		if pass.waived(f.Pos(), "nostat") {
			continue
		}
		pass.Reportf(f.Pos(), "%s.%s is never reachable from the type's String/CSV "+
			"emitters: the column is silently dropped from every table "+
			"(emit it, or waive with //lukewarm:nostat <reason>)", named.Obj().Name(), f.Name())
	}
}
