package rpcgen

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a .x interface definition.
func Parse(src string) (*Spec, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, spec: &Spec{}}
	for !p.at("") {
		if err := p.topDecl(); err != nil {
			return nil, err
		}
	}
	if err := p.spec.typedefCycle(); err != nil {
		return nil, err
	}
	return p.spec, nil
}

// typedefCycle refuses a typedef that reaches itself through typedefs
// alone (typedef node *node;): it names no data.
func (s *Spec) typedefCycle() error {
	next := make(map[string]string)
	for _, td := range s.Typedefs {
		next[td.Name] = td.Type.Name
	}
	for _, td := range s.Typedefs {
		for i, name := 0, td.Name; i < len(next); i++ {
			if name = next[name]; name == td.Name {
				return fmt.Errorf("rpcgen: typedef %s reaches itself through typedefs alone", td.Name)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Lexing

type xtok struct {
	text string
	line int
}

func lex(src string) ([]xtok, error) {
	var toks []xtok
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("rpcgen: line %d: unterminated comment", line)
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '%': // passthrough lines of the original rpcgen: skip
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isIdentByte(c):
			start := i
			for i < len(src) && isIdentByte(src[i]) {
				i++
			}
			toks = append(toks, xtok{text: src[start:i], line: line})
		case strings.ContainsRune("{}()<>[];,*=:", rune(c)):
			toks = append(toks, xtok{text: string(c), line: line})
			i++
		case c == '-':
			toks = append(toks, xtok{text: "-", line: line})
			i++
		default:
			return nil, fmt.Errorf("rpcgen: line %d: unexpected character %q", line, string(c))
		}
	}
	toks = append(toks, xtok{text: "", line: line}) // EOF
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) ||
		(c >= '0' && c <= '9') || c == 'x' || c == 'X'
}

// ---------------------------------------------------------------------------
// Parsing

type parser struct {
	toks []xtok
	pos  int
	spec *Spec
}

func (p *parser) cur() xtok { return p.toks[p.pos] }

// next consumes the current token, except the final EOF: the position
// never leaves the token slice, so a caller that read EOF where it
// wanted a value reports its ordinary "expected ..." error next.
func (p *parser) next() xtok {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(text string) bool { return p.cur().text == text }

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	return fmt.Errorf("rpcgen: line %d: expected %q, found %q", p.cur().line, text, p.cur().text)
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.text == "" || !isIdentStartRune(t.text) {
		return "", fmt.Errorf("rpcgen: line %d: expected identifier, found %q", t.line, t.text)
	}
	p.pos++
	return t.text, nil
}

func isIdentStartRune(s string) bool {
	r := rune(s[0])
	return r == '_' || unicode.IsLetter(r)
}

// value parses an integer literal or constant reference.
func (p *parser) value() (int64, error) {
	neg := p.accept("-")
	t := p.next()
	v, err := p.spec.resolve(t.text)
	if err != nil {
		return 0, fmt.Errorf("rpcgen: line %d: %w", t.line, err)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// resolve reads an integer literal (decimal, or hexadecimal after 0x) or
// a constant or enumerator declared so far.
func (s *Spec) resolve(text string) (int64, error) {
	var v int64
	var err error
	switch {
	case strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X"):
		v, err = strconv.ParseInt(text[2:], 16, 64)
	case text != "" && text[0] >= '0' && text[0] <= '9':
		v, err = strconv.ParseInt(text, 10, 64)
	default:
		c, ok := s.LookupConst(text)
		if !ok {
			return 0, fmt.Errorf("unknown constant %q", text)
		}
		return c, nil
	}
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %v", text, err)
	}
	return v, nil
}

func (p *parser) topDecl() error {
	switch {
	case p.accept("const"):
		name, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		v, err := p.value()
		if err != nil {
			return err
		}
		if err := p.expect(";"); err != nil {
			return err
		}
		if err := p.spec.addConst(name, v); err != nil {
			return err
		}
		p.spec.Consts = append(p.spec.Consts, ConstDef{Name: name, Value: v})
		return nil
	case p.accept("enum"):
		return p.enumDecl()
	case p.accept("struct"):
		return p.structDecl()
	case p.accept("typedef"):
		return p.typedefDecl()
	case p.accept("union"):
		return p.unionDecl()
	case p.accept("program"):
		return p.programDecl()
	default:
		return fmt.Errorf("rpcgen: line %d: unexpected %q at top level", p.cur().line, p.cur().text)
	}
}

func (p *parser) enumDecl() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	def := EnumDef{Name: name}
	next := int64(0)
	for {
		cname, err := p.ident()
		if err != nil {
			return err
		}
		v := next
		if p.accept("=") {
			v, err = p.value()
			if err != nil {
				return err
			}
		}
		next = v + 1
		if err := p.spec.addConst(cname, v); err != nil {
			return err
		}
		def.Consts = append(def.Consts, EnumConst{Name: cname, Value: v})
		if p.accept("}") {
			break
		}
		if err := p.expect(","); err != nil {
			return err
		}
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	if err := p.spec.addDecl(name, "enum"); err != nil {
		return err
	}
	p.spec.Enums = append(p.spec.Enums, def)
	return nil
}

// baseType parses a type name (no declarator shape).
func (p *parser) baseType() (TypeRef, error) {
	t := p.next()
	switch t.text {
	case "unsigned":
		// "unsigned int", "unsigned hyper", or bare "unsigned".
		if p.accept("int") {
			return TypeRef{Kind: KindUint}, nil
		}
		if p.accept("hyper") {
			return TypeRef{Kind: KindUhyper}, nil
		}
		return TypeRef{Kind: KindUint}, nil
	case "int", "long":
		return TypeRef{Kind: KindInt}, nil
	case "hyper":
		return TypeRef{Kind: KindHyper}, nil
	case "bool":
		return TypeRef{Kind: KindBool}, nil
	case "float":
		return TypeRef{Kind: KindFloat}, nil
	case "double":
		return TypeRef{Kind: KindDouble}, nil
	case "string":
		return TypeRef{Kind: KindString}, nil
	case "opaque":
		return TypeRef{Kind: KindOpaqueF}, nil // refined by declarator
	case "void":
		return TypeRef{Kind: KindVoid}, nil
	case "struct", "enum", "union":
		name, err := p.ident()
		if err != nil {
			return TypeRef{}, err
		}
		return TypeRef{Kind: KindNamed, Name: name}, nil
	default:
		if t.text == "" || !isIdentStartRune(t.text) {
			return TypeRef{}, fmt.Errorf("rpcgen: line %d: expected type, found %q", t.line, t.text)
		}
		return TypeRef{Kind: KindNamed, Name: t.text}, nil
	}
}

// declarator parses "name", "name[n]", "name<bound>", "*name" shapes,
// refining typ.
func (p *parser) declarator(typ TypeRef) (string, TypeRef, error) {
	if p.accept("*") {
		typ.Optional = true
	}
	typ.Line = p.cur().line
	name, err := p.ident()
	if err != nil {
		return "", typ, err
	}
	switch {
	case p.accept("["):
		n, err := p.value()
		if err != nil {
			return "", typ, err
		}
		if err := p.expect("]"); err != nil {
			return "", typ, err
		}
		if typ.Kind == KindOpaqueF {
			typ.Bound = int(n)
		} else {
			typ.FixedArray = int(n)
		}
	case p.accept("<"):
		bound := int64(0)
		if !p.at(">") {
			bound, err = p.value()
			if err != nil {
				return "", typ, err
			}
		}
		if err := p.expect(">"); err != nil {
			return "", typ, err
		}
		switch typ.Kind {
		case KindOpaqueF:
			typ.Kind = KindOpaqueV
			typ.Bound = int(bound)
		case KindString:
			typ.Bound = int(bound)
		default:
			typ.VarArray = true
			typ.Bound = int(bound)
		}
	default:
		if typ.Kind == KindString {
			return "", typ, fmt.Errorf("rpcgen: string %s needs a <bound>", name)
		}
	}
	return name, typ, nil
}

func (p *parser) fieldDecl() (Field, error) {
	typ, err := p.baseType()
	if err != nil {
		return Field{}, err
	}
	name, typ, err := p.declarator(typ)
	if err != nil {
		return Field{}, err
	}
	if err := p.expect(";"); err != nil {
		return Field{}, err
	}
	return Field{Name: name, Type: typ}, nil
}

func (p *parser) structDecl() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	def := StructDef{Name: name}
	for !p.accept("}") {
		f, err := p.fieldDecl()
		if err != nil {
			return err
		}
		def.Fields = append(def.Fields, f)
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	if err := p.spec.addDecl(name, "struct"); err != nil {
		return err
	}
	p.spec.Structs = append(p.spec.Structs, def)
	return nil
}

func (p *parser) typedefDecl() error {
	typ, err := p.baseType()
	if err != nil {
		return err
	}
	name, typ, err := p.declarator(typ)
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	if err := p.spec.addDecl(name, "typedef"); err != nil {
		return err
	}
	p.spec.Typedefs = append(p.spec.Typedefs, TypedefDef{Name: name, Type: typ})
	return nil
}

func (p *parser) unionDecl() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("switch"); err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	dtyp, err := p.baseType()
	if err != nil {
		return err
	}
	dname, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	def := UnionDef{Name: name, Discriminant: Field{Name: dname, Type: dtyp}}
	for !p.accept("}") {
		var arm UnionArm
		switch {
		case p.accept("case"):
			v := p.next().text
			arm.CaseValues = append(arm.CaseValues, v)
			if err := p.expect(":"); err != nil {
				return err
			}
			for p.accept("case") {
				arm.CaseValues = append(arm.CaseValues, p.next().text)
				if err := p.expect(":"); err != nil {
					return err
				}
			}
		case p.accept("default"):
			if err := p.expect(":"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("rpcgen: line %d: expected case/default in union", p.cur().line)
		}
		if p.accept("void") {
			if err := p.expect(";"); err != nil {
				return err
			}
		} else {
			f, err := p.fieldDecl()
			if err != nil {
				return err
			}
			arm.Field = &f
		}
		def.Arms = append(def.Arms, arm)
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	if err := p.spec.addDecl(name, "union"); err != nil {
		return err
	}
	p.spec.Unions = append(p.spec.Unions, def)
	return nil
}

func (p *parser) programDecl() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	prog := ProgramDef{Name: name}
	for !p.accept("}") {
		if err := p.expect("version"); err != nil {
			return err
		}
		vname, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect("{"); err != nil {
			return err
		}
		ver := VersionDef{Name: vname}
		for !p.accept("}") {
			// result-type PROC(arg-type) = num;
			rtyp, err := p.baseType()
			if err != nil {
				return err
			}
			pname, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect("("); err != nil {
				return err
			}
			atyp := TypeRef{Kind: KindVoid}
			if !p.at(")") {
				atyp, err = p.baseType()
				if err != nil {
					return err
				}
			}
			if err := p.expect(")"); err != nil {
				return err
			}
			if err := p.expect("="); err != nil {
				return err
			}
			num, err := p.value()
			if err != nil {
				return err
			}
			if err := p.expect(";"); err != nil {
				return err
			}
			ver.Procs = append(ver.Procs, ProcDef{Name: pname, Num: uint32(num), Arg: atyp, Result: rtyp})
		}
		if err := p.expect("="); err != nil {
			return err
		}
		vnum, err := p.value()
		if err != nil {
			return err
		}
		if err := p.expect(";"); err != nil {
			return err
		}
		ver.Num = uint32(vnum)
		prog.Versions = append(prog.Versions, ver)
	}
	if err := p.expect("="); err != nil {
		return err
	}
	pnum, err := p.value()
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	prog.Num = uint32(pnum)
	if err := p.spec.addConst(name, pnum); err != nil {
		return err
	}
	p.spec.Programs = append(p.spec.Programs, prog)
	return nil
}
