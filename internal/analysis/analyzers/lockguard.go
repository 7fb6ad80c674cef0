package analyzers

import (
	"go/ast"
	"regexp"
	"strings"

	"specrpc/internal/analysis"
)

// LockGuard checks the mutex-comment discipline: a struct field whose
// comment says "guards a, b" (on the mutex) or "guarded by mu" (on the
// data) may only be touched through a receiver inside methods that
// visibly take that lock — a `recv.mu.Lock()` / `RLock()` call
// somewhere in the method body, a `defer recv.mu.Unlock()`, or the two
// explicit opt-outs for helpers called under the lock: a name ending in
// "Locked" or a `//specvet:ok lockguard` line.
//
// The check is syntactic and intraprocedural by design: it cannot prove
// the lock is held at the access, but it catches the real historical
// failure — a new method (often a cold-path accessor or String/debug
// dump) reading shared state with no locking at all.
var LockGuard = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  "fields commented as lock-guarded are only touched by methods that take the lock",
	Run:  runLockGuard,
}

var (
	guardsRe    = regexp.MustCompile(`\bguards:?\s+([A-Za-z0-9_,()\[\] ]+)`)
	guardedByRe = regexp.MustCompile(`\bguarded by\s+([A-Za-z_][A-Za-z0-9_]*)`)
)

// guardSpec maps guarded field name -> mutex field name, per struct.
type guardSpec map[string]string

func runLockGuard(pass *analysis.Pass) error {
	specs := map[string]guardSpec{} // struct type name -> spec
	for _, file := range pass.Files {
		collectGuards(file, specs)
	}
	if len(specs) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		sup := suppressions(pass.Fset, file, "lockguard")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			recvType := receiverTypeName(fd.Recv.List[0].Type)
			spec, ok := specs[recvType]
			if !ok {
				continue
			}
			checkGuardedMethod(pass, fd, spec, sup)
		}
	}
	return nil
}

// collectGuards scans struct declarations for guard comments.
func collectGuards(file *ast.File, specs map[string]guardSpec) {
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		spec := guardSpec{}
		for _, field := range st.Fields.List {
			text := fieldCommentText(field)
			if text == "" || len(field.Names) == 0 {
				continue
			}
			if m := guardsRe.FindStringSubmatch(text); m != nil {
				// "mu sync.Mutex // guards a, b": the comment sits on the
				// mutex and names the data.
				mu := field.Names[0].Name
				for _, g := range strings.Split(m[1], ",") {
					g = strings.TrimSpace(g)
					// Tolerate prose after the list: "guards rng (Read and
					// Write ...)" names only identifiers.
					if i := strings.IndexAny(g, " (["); i >= 0 {
						g = g[:i]
					}
					if isIdent(g) {
						spec[g] = mu
					}
				}
			}
			if m := guardedByRe.FindStringSubmatch(text); m != nil {
				// "cur *conn // guarded by connMu": the comment sits on
				// the data and names the mutex.
				for _, name := range field.Names {
					spec[name.Name] = m[1]
				}
			}
		}
		if len(spec) > 0 {
			specs[ts.Name.Name] = spec
		}
		return true
	})
}

func fieldCommentText(field *ast.Field) string {
	var parts []string
	if field.Doc != nil {
		parts = append(parts, field.Doc.Text())
	}
	if field.Comment != nil {
		parts = append(parts, field.Comment.Text())
	}
	return strings.Join(parts, " ")
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			continue
		}
		if i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return false
	}
	return true
}

func receiverTypeName(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	default:
		return ""
	}
}

func checkGuardedMethod(pass *analysis.Pass, fd *ast.FuncDecl, spec guardSpec, sup map[int]bool) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	recv := ""
	if names := fd.Recv.List[0].Names; len(names) > 0 {
		recv = names[0].Name
	}
	if recv == "" || recv == "_" {
		return
	}
	// Which mutexes does this method visibly take?
	taken := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return true
		}
		if mu, ok := recvField(sel.X, recv); ok {
			taken[mu] = true
		}
		return true
	})
	// Report guarded-field accesses without the lock.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recv {
			return true
		}
		mu, guarded := spec[sel.Sel.Name]
		if !guarded || taken[mu] {
			return true
		}
		if suppressed(sup, pass.Fset, sel.Pos()) {
			return true
		}
		pass.Reportf(sel.Pos(), "%s.%s is guarded by %s, but %s never takes it (suffix the method Locked or take the lock)",
			recv, sel.Sel.Name, mu, fd.Name.Name)
		return true
	})
}

// recvField matches the expression recv.<field> and returns the field
// name.
func recvField(e ast.Expr, recv string) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recv {
		return "", false
	}
	return sel.Sel.Name, true
}
