package minic

// Parser is a recursive-descent parser for mini-C.
type Parser struct {
	toks []Token
	pos  int
	prog *Program
}

// Parse parses a full compilation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, prog: NewProgram()}
	for !p.at(TokEOF, "") {
		if err := p.topDecl(); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// MustParse parses src and panics on error; for tests and embedded
// library sources validated by the build.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

// peek returns the token n places ahead, or the closing EOF token when
// the input ends sooner.
func (p *Parser) peek(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		want = map[TokKind]string{TokIdent: "identifier", TokInt: "integer"}[kind]
	}
	return Token{}, errAt(t.Pos, "expected %q, found %q", want, t.Text)
}

// atType reports whether the current token starts a type.
func (p *Parser) atType() bool {
	if p.cur().Kind != TokKeyword {
		return false
	}
	switch p.cur().Text {
	case "int", "long", "char", "void", "unsigned", "struct", "funcptr":
		return true
	default:
		return false
	}
}

// parseType parses a type: base type plus pointer stars.
func (p *Parser) parseType() (Type, error) {
	t := p.cur()
	var base Type
	switch {
	case p.accept(TokKeyword, "unsigned"):
		// "unsigned int" / "unsigned long" / bare "unsigned".
		p.accept(TokKeyword, "int")
		p.accept(TokKeyword, "long")
		base = TypeInt
	case p.accept(TokKeyword, "int"), p.accept(TokKeyword, "long"):
		// "long" may be followed by "int" ("long int").
		p.accept(TokKeyword, "int")
		base = TypeInt
	case p.accept(TokKeyword, "char"):
		base = TypeChar
	case p.accept(TokKeyword, "void"):
		base = TypeVoid
	case p.accept(TokKeyword, "funcptr"):
		base = TypeFuncPtr
	case p.accept(TokKeyword, "struct"):
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		s, ok := p.prog.Structs[name.Text]
		if !ok {
			// Forward reference: create the shell now; Check verifies
			// all referenced structs are eventually defined.
			s = &Struct{Name: name.Text}
			p.prog.Structs[name.Text] = s
		}
		base = s
	default:
		return nil, errAt(t.Pos, "expected type, found %q", t.Text)
	}
	for p.accept(TokPunct, "*") {
		base = &Ptr{Elem: base}
	}
	return base, nil
}

func (p *Parser) topDecl() error {
	switch {
	case p.at(TokKeyword, "struct") && p.peek(2).Text == "{":
		return p.structDef()
	case p.accept(TokKeyword, "extern"):
		return p.externDecl()
	default:
		return p.funcDef()
	}
}

func (p *Parser) structDef() error {
	if _, err := p.expect(TokKeyword, "struct"); err != nil {
		return err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return err
	}
	s, ok := p.prog.Structs[name.Text]
	if ok && len(s.Fields) > 0 {
		return errAt(name.Pos, "struct %s redefined", name.Text)
	}
	if !ok {
		s = &Struct{Name: name.Text}
		p.prog.Structs[name.Text] = s
	}
	for !p.accept(TokPunct, "}") {
		ft, err := p.parseType()
		if err != nil {
			return err
		}
		for {
			fname, err := p.expect(TokIdent, "")
			if err != nil {
				return err
			}
			fieldType := ft
			if p.accept(TokPunct, "[") {
				n, err := p.expect(TokInt, "")
				if err != nil {
					return err
				}
				if _, err := p.expect(TokPunct, "]"); err != nil {
					return err
				}
				fieldType = &Array{Elem: ft, Len: int(n.Val)}
			}
			s.Fields = append(s.Fields, FieldDef{Name: fname.Text, Type: fieldType})
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return err
		}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return err
	}
	p.prog.Order = append(p.prog.Order, "struct "+name.Text)
	return nil
}

func (p *Parser) paramList() ([]Param, error) {
	var params []Param
	if p.accept(TokPunct, ")") {
		return params, nil
	}
	// "(void)" means no parameters.
	if p.at(TokKeyword, "void") && p.peek(1).Text == ")" {
		p.next()
		p.next()
		return params, nil
	}
	for {
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		// Array parameters decay to pointers, as in C.
		if p.accept(TokPunct, "[") {
			p.accept(TokInt, "")
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			t = &Ptr{Elem: t}
		}
		params = append(params, Param{Name: name.Text, Type: t})
		if p.accept(TokPunct, ")") {
			return params, nil
		}
		if _, err := p.expect(TokPunct, ","); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) externDecl() error {
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return err
	}
	params, err := p.paramList()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return err
	}
	p.prog.Externs[name.Text] = &ExternDecl{Pos: name.Pos, Name: name.Text, Ret: ret, Params: params}
	p.prog.Order = append(p.prog.Order, "extern "+name.Text)
	return nil
}

func (p *Parser) funcDef() error {
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return err
	}
	params, err := p.paramList()
	if err != nil {
		return err
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	if _, dup := p.prog.Funcs[name.Text]; dup {
		return errAt(name.Pos, "function %s redefined", name.Text)
	}
	p.prog.Funcs[name.Text] = &FuncDef{Pos: name.Pos, Name: name.Text, Ret: ret, Params: params, Body: body}
	p.prog.Order = append(p.prog.Order, "func "+name.Text)
	return nil
}

func (p *Parser) block() (*Block, error) {
	open, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{Pos: open.Pos}}
	for !p.accept(TokPunct, "}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	return b, nil
}

func (p *Parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at(TokPunct, "{"):
		return p.block()
	case p.accept(TokPunct, ";"):
		return nil, nil
	case p.accept(TokKeyword, "if"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(TokKeyword, "else") {
			els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Then: then, Else: els}, nil
	case p.accept(TokKeyword, "while"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &While{stmtBase: stmtBase{Pos: t.Pos}, Cond: cond, Body: body}, nil
	case p.accept(TokKeyword, "for"):
		return p.forStmt(t.Pos)
	case p.accept(TokKeyword, "return"):
		var e Expr
		if !p.at(TokPunct, ";") {
			var err error
			e, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Return{stmtBase: stmtBase{Pos: t.Pos}, E: e}, nil
	case p.accept(TokKeyword, "break"):
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase: stmtBase{Pos: t.Pos}}, nil
	case p.accept(TokKeyword, "continue"):
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase: stmtBase{Pos: t.Pos}}, nil
	case p.atType():
		decl, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return decl, nil
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &ExprStmt{stmtBase: stmtBase{Pos: t.Pos}, E: e}, nil
	}
}

func (p *Parser) varDecl() (*VarDecl, error) {
	t := p.cur()
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if p.accept(TokPunct, "[") {
		n, err := p.expect(TokInt, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
		typ = &Array{Elem: typ, Len: int(n.Val)}
	}
	d := &VarDecl{stmtBase: stmtBase{Pos: t.Pos}, Name: name.Text, Type: typ}
	if p.accept(TokPunct, "=") {
		d.Init, err = p.assignExpr()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *Parser) forStmt(pos Pos) (Stmt, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	f := &For{stmtBase: stmtBase{Pos: pos}}
	if !p.at(TokPunct, ";") {
		if p.atType() {
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			f.Init = d
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{stmtBase: stmtBase{Pos: pos}, E: e}
		}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ";") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ")") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Post = &ExprStmt{stmtBase: stmtBase{Pos: pos}, E: e}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) expr() (Expr, error) { return p.assignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) assignExpr() (Expr, error) {
	lhs, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.next()
		rhs, err := p.assignExpr() // right-associative
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

// binLevels lists binary operators from lowest to highest precedence.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", ">", "<=", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *Parser) binaryExpr(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.unaryExpr()
	}
	lhs, err := p.binaryExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct || !contains(binLevels[level], t.Text) {
			return lhs, nil
		}
		// Disambiguate unary & and * (they only appear in unary position,
		// which this loop never is) — nothing to do; precedence handles it.
		p.next()
		rhs, err := p.binaryExpr(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: lhs, Y: rhs}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func (p *Parser) unaryExpr() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "-", "*", "&", "~":
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: x}, nil
		case "++", "--":
			// Pre-increment sugar: ++x ≡ (x += 1).
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			op := "+="
			if t.Text == "--" {
				op = "-="
			}
			one := &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: 1}
			return &Assign{exprBase: exprBase{Pos: t.Pos}, Op: op, LHS: x, RHS: one}, nil
		}
	}
	return p.postfixExpr()
}

func (p *Parser) postfixExpr() (Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.accept(TokPunct, "("):
			call := &Call{exprBase: exprBase{Pos: t.Pos}, Fun: e}
			if !p.accept(TokPunct, ")") {
				for {
					a, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(TokPunct, ")") {
						break
					}
					if _, err := p.expect(TokPunct, ","); err != nil {
						return nil, err
					}
				}
			}
			e = call
		case p.accept(TokPunct, "["):
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			e = &Index{exprBase: exprBase{Pos: t.Pos}, X: e, I: i}
		case p.accept(TokPunct, "."):
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			e = &Field{exprBase: exprBase{Pos: t.Pos}, X: e, Name: name.Text}
		case p.accept(TokPunct, "->"):
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			e = &Field{exprBase: exprBase{Pos: t.Pos}, X: e, Name: name.Text, Arrow: true}
		case p.at(TokPunct, "++") || p.at(TokPunct, "--"):
			// Post-increment sugar with pre-increment value semantics;
			// valid only where the value is discarded, which Check could
			// enforce — the RPC sources never use the value.
			p.next()
			op := "+="
			if t.Text == "--" {
				op = "-="
			}
			one := &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: 1}
			e = &Assign{exprBase: exprBase{Pos: t.Pos}, Op: op, LHS: e, RHS: one}
		default:
			return e, nil
		}
	}
}

func (p *Parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Val}, nil
	case t.Kind == TokString:
		p.next()
		return &StrLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Text}, nil
	case t.Kind == TokIdent:
		p.next()
		return &VarRef{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
	case p.accept(TokKeyword, "sizeof"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return &SizeOf{exprBase: exprBase{Pos: t.Pos}, T: typ}, nil
	case p.accept(TokPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errAt(t.Pos, "unexpected token %q in expression", t.Text)
	}
}
