package socialite

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file implements the front half of SociaLite: a parser and compiler
// from Datalog rule source — the notation the paper prints, e.g.
//
//	RANK2[n]($SUM(v)) :- RANK[s](v0), OUTDEG[s](d), v = (1-0.3)*v0/d, OUTEDGE[s](n).
//	BFS(t, $MIN(d)) :- BFS(s, d0), EDGE(s, t), d = d0+1.
//	TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).
//
// — down to the compiled Rule form that the evaluator executes. Both the
// bracketed location form TABLE[x](v…) and the flat form TABLE(x, v…) are
// accepted, as in the paper.

// Registry resolves table names during compilation.
type Registry struct {
	tables map[string]Table
}

// NewRegistry returns an empty table registry.
func NewRegistry() *Registry {
	return &Registry{tables: make(map[string]Table)}
}

// Register adds a table under its name (case-sensitive, as in SociaLite).
func (r *Registry) Register(t Table) {
	r.tables[t.Name()] = t
}

// Lookup finds a table.
func (r *Registry) Lookup(name string) (Table, bool) {
	t, ok := r.tables[name]
	return t, ok
}

// Parse compiles one Datalog rule into executable form. The trailing
// period is optional.
func Parse(src string, reg *Registry) (*Rule, error) {
	p := &parser{src: src, reg: reg}
	rule, err := p.rule()
	if err != nil {
		return nil, fmt.Errorf("socialite: parse %q: %w", src, err)
	}
	if err := rule.Validate(); err != nil {
		return nil, fmt.Errorf("socialite: parse %q: at offset 0: %w", src, err)
	}
	return rule, nil
}

// ---- tokenizer ----

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokAggFn // $SUM, $MIN, $INC
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokTurnstile // :-
	tokEquals
	tokOp     // + - * /
	tokPeriod // statement terminator
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src string
	reg *Registry
	pos int
	tok token
	// depth counts the parentheses and unary minuses factor is inside of.
	depth int

	// Compilation state.
	keySlots map[string]int
	valSlots map[string]int
	keyBound map[string]bool
	valBound map[string]bool
}

// maxExprDepth bounds expression nesting: the parser recurses once per
// parenthesis or unary minus, and rule text arrives from sockets.
const maxExprDepth = 200

// errAt is an error naming the source offset it is about.
func errAt(pos int, format string, args ...any) error {
	return fmt.Errorf("at offset %d: "+format, append([]any{pos}, args...)...)
}

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.tok.pos, format, args...)
}

func (p *parser) next() error {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return nil
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case c == '[':
		p.pos++
		p.tok = token{tokLBracket, "[", start}
	case c == ']':
		p.pos++
		p.tok = token{tokRBracket, "]", start}
	case c == ',':
		p.pos++
		p.tok = token{tokComma, ",", start}
	case c == '.':
		p.pos++
		p.tok = token{tokPeriod, ".", start}
	case c == '=':
		p.pos++
		p.tok = token{tokEquals, "=", start}
	case c == '+' || c == '-' || c == '*' || c == '/':
		p.pos++
		p.tok = token{tokOp, string(c), start}
	case c == ':':
		if strings.HasPrefix(p.src[p.pos:], ":-") {
			p.pos += 2
			p.tok = token{tokTurnstile, ":-", start}
		} else {
			return errAt(start, "stray ':'")
		}
	case c == '$':
		p.pos++
		for p.pos < len(p.src) && (unicode.IsLetter(rune(p.src[p.pos])) || unicode.IsDigit(rune(p.src[p.pos]))) {
			p.pos++
		}
		p.tok = token{tokAggFn, p.src[start:p.pos], start}
	case unicode.IsDigit(rune(c)):
		for p.pos < len(p.src) && (unicode.IsDigit(rune(p.src[p.pos])) || p.src[p.pos] == '.') {
			// A '.' is part of the number only when followed by a digit
			// (otherwise it terminates the rule).
			if p.src[p.pos] == '.' &&
				(p.pos+1 >= len(p.src) || !unicode.IsDigit(rune(p.src[p.pos+1]))) {
				break
			}
			p.pos++
		}
		p.tok = token{tokNumber, p.src[start:p.pos], start}
	case unicode.IsLetter(rune(c)) || c == '_':
		for p.pos < len(p.src) && (unicode.IsLetter(rune(p.src[p.pos])) || unicode.IsDigit(rune(p.src[p.pos])) || p.src[p.pos] == '_') {
			p.pos++
		}
		p.tok = token{tokIdent, p.src[start:p.pos], start}
	default:
		return errAt(start, "unexpected character %q", c)
	}
	return nil
}

func (p *parser) expect(kind tokKind, what string) error {
	if p.tok.kind != kind {
		return p.errf("expected %s, got %q", what, p.tok.text)
	}
	return p.next()
}

// ---- grammar ----

// headSpec carries the parsed head before slot resolution.
type headSpec struct {
	pos        int // of the table name; keyPos and valPos of its arguments
	keyPos     int
	valPos     int
	table      string
	keyVar     string // "" when the key is a literal (global aggregate)
	keyLit     bool
	agg        Agg
	valVar     string // "" when the value is a literal (e.g. $INC(1))
	valLit     float64
	isValueLit bool
}

type bodyAtom struct {
	pos   int
	table string
	args  []string // variable names; literals are not allowed in body atoms
}

type assignment struct {
	pos      int
	variable string
	expr     expr
}

// rule parses: head ":-" body ("." | EOF).
func (p *parser) rule() (*Rule, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	head, err := p.head()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokTurnstile, "':-'"); err != nil {
		return nil, err
	}
	var atoms []bodyAtom
	var assigns []assignment
	var order []any // evaluation order of atoms/assignments as written
	for {
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected a body atom or assignment, got %q", p.tok.text)
		}
		name, pos := p.tok.text, p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokEquals {
			// assignment: v = expr
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			a := assignment{pos: pos, variable: name, expr: e}
			assigns = append(assigns, a)
			order = append(order, a)
		} else {
			atom, err := p.atomArgs(name, pos)
			if err != nil {
				return nil, err
			}
			atoms = append(atoms, atom)
			order = append(order, atom)
		}
		if p.tok.kind == tokComma {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.tok.kind == tokPeriod {
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input %q", p.tok.text)
	}
	if len(atoms) == 0 {
		return nil, p.errf("rule has no body atoms")
	}
	return p.compile(head, order)
}

// head parses TABLE[k]($AGG(v)) or TABLE(k, $AGG(v)); the aggregation may
// be omitted for plain assignment heads (TABLE[k](v)).
func (p *parser) head() (headSpec, error) {
	var h headSpec
	if p.tok.kind != tokIdent {
		return h, p.errf("expected head table name, got %q", p.tok.text)
	}
	h.table, h.pos = p.tok.text, p.tok.pos
	if err := p.next(); err != nil {
		return h, err
	}
	readKey := func() error {
		h.keyPos = p.tok.pos
		switch p.tok.kind {
		case tokIdent:
			h.keyVar = p.tok.text
		case tokNumber:
			h.keyLit = true
		default:
			return p.errf("expected head key, got %q", p.tok.text)
		}
		return p.next()
	}
	readValue := func() error {
		switch p.tok.kind {
		case tokAggFn:
			switch p.tok.text {
			case "$SUM":
				h.agg = AggSum
			case "$MIN":
				h.agg = AggMin
			case "$INC":
				h.agg = AggCount
			default:
				return p.errf("unknown aggregation %q", p.tok.text)
			}
			if err := p.next(); err != nil {
				return err
			}
			if err := p.expect(tokLParen, "'('"); err != nil {
				return err
			}
			h.valPos = p.tok.pos
			switch p.tok.kind {
			case tokIdent:
				h.valVar = p.tok.text
			case tokNumber:
				v, err := strconv.ParseFloat(p.tok.text, 64)
				if err != nil {
					return p.errf("bad literal %q", p.tok.text)
				}
				h.valLit, h.isValueLit = v, true
			default:
				return p.errf("expected aggregation argument, got %q", p.tok.text)
			}
			if err := p.next(); err != nil {
				return err
			}
			return p.expect(tokRParen, "')'")
		case tokIdent:
			h.agg = AggAssign
			h.valVar, h.valPos = p.tok.text, p.tok.pos
			return p.next()
		default:
			return p.errf("expected head value, got %q", p.tok.text)
		}
	}

	if p.tok.kind == tokLBracket {
		// TABLE[k](value)
		if err := p.next(); err != nil {
			return h, err
		}
		if err := readKey(); err != nil {
			return h, err
		}
		if err := p.expect(tokRBracket, "']'"); err != nil {
			return h, err
		}
		if err := p.expect(tokLParen, "'('"); err != nil {
			return h, err
		}
		if err := readValue(); err != nil {
			return h, err
		}
		return h, p.expect(tokRParen, "')'")
	}
	// TABLE(k, value)
	if err := p.expect(tokLParen, "'('"); err != nil {
		return h, err
	}
	if err := readKey(); err != nil {
		return h, err
	}
	if err := p.expect(tokComma, "','"); err != nil {
		return h, err
	}
	if err := readValue(); err != nil {
		return h, err
	}
	return h, p.expect(tokRParen, "')'")
}

// atomArgs parses the argument lists of a body atom whose name was
// already consumed: NAME[k](args…) or NAME(args…).
func (p *parser) atomArgs(name string, pos int) (bodyAtom, error) {
	atom := bodyAtom{pos: pos, table: name}
	readVar := func() error {
		if p.tok.kind != tokIdent {
			return p.errf("expected a variable, got %q", p.tok.text)
		}
		atom.args = append(atom.args, p.tok.text)
		return p.next()
	}
	if p.tok.kind == tokLBracket {
		if err := p.next(); err != nil {
			return atom, err
		}
		if err := readVar(); err != nil {
			return atom, err
		}
		if err := p.expect(tokRBracket, "']'"); err != nil {
			return atom, err
		}
	}
	if err := p.expect(tokLParen, "'('"); err != nil {
		return atom, err
	}
	for {
		if err := readVar(); err != nil {
			return atom, err
		}
		if p.tok.kind == tokComma {
			if err := p.next(); err != nil {
				return atom, err
			}
			continue
		}
		break
	}
	return atom, p.expect(tokRParen, "')'")
}

// ---- expressions ----

// expr is a compiled scalar expression over rule variables.
type expr interface {
	// vars lists the variables referenced.
	vars() []string
	// compile resolves variables to value slots and returns the closure.
	compile(valSlot map[string]int) func(env *Env) float64
}

type numExpr float64

func (numExpr) vars() []string { return nil }
func (n numExpr) compile(map[string]int) func(*Env) float64 {
	v := float64(n)
	return func(*Env) float64 { return v }
}

type varExpr string

func (v varExpr) vars() []string { return []string{string(v)} }
func (v varExpr) compile(valSlot map[string]int) func(*Env) float64 {
	slot := valSlot[string(v)]
	return func(env *Env) float64 { return env.Vals[slot] }
}

type binExpr struct {
	op   byte
	l, r expr
}

func (b binExpr) vars() []string { return append(b.l.vars(), b.r.vars()...) }
func (b binExpr) compile(valSlot map[string]int) func(*Env) float64 {
	l, r := b.l.compile(valSlot), b.r.compile(valSlot)
	switch b.op {
	case '+':
		return func(env *Env) float64 { return l(env) + r(env) }
	case '-':
		return func(env *Env) float64 { return l(env) - r(env) }
	case '*':
		return func(env *Env) float64 { return l(env) * r(env) }
	default:
		return func(env *Env) float64 {
			d := r(env)
			if d == 0 {
				return 0 // SociaLite's arithmetic treats x/0 as 0 (no tuple)
			}
			return l(env) / d
		}
	}
}

// expr parses an additive expression.
func (p *parser) expr() (expr, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text[0]
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) term() (expr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text[0]
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) factor() (expr, error) {
	if p.depth++; p.depth > maxExprDepth {
		return nil, p.errf("expression nested deeper than %d", maxExprDepth)
	}
	defer func() { p.depth-- }()
	switch p.tok.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", p.tok.text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return numExpr(v), nil
	case tokIdent:
		v := varExpr(p.tok.text)
		if err := p.next(); err != nil {
			return nil, err
		}
		return v, nil
	case tokLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(tokRParen, "')'")
	case tokOp:
		if p.tok.text == "-" {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.factor()
			if err != nil {
				return nil, err
			}
			return binExpr{op: '-', l: numExpr(0), r: e}, nil
		}
	}
	return nil, p.errf("expected an expression, got %q", p.tok.text)
}

// ---- compilation ----

func (p *parser) keySlot(name string) int {
	if s, ok := p.keySlots[name]; ok {
		return s
	}
	s := len(p.keySlots)
	p.keySlots[name] = s
	return s
}

func (p *parser) valSlot(name string) int {
	if s, ok := p.valSlots[name]; ok {
		return s
	}
	s := len(p.valSlots)
	p.valSlots[name] = s
	return s
}

// compile resolves variables to slots and assembles the Rule: the first
// atom becomes the driver, later atoms become joins/checks, assignments
// become interleaved Lets at their written position.
func (p *parser) compile(head headSpec, order []any) (*Rule, error) {
	p.keySlots = map[string]int{}
	p.valSlots = map[string]int{}
	p.keyBound = map[string]bool{}
	p.valBound = map[string]bool{}
	rule := &Rule{Name: head.table}

	classify := func(a bodyAtom) (Table, error) {
		t, ok := p.reg.Lookup(a.table)
		if !ok {
			return nil, errAt(a.pos, "unknown table %q", a.table)
		}
		return t, nil
	}

	first := true
	for _, item := range order {
		switch it := item.(type) {
		case bodyAtom:
			t, err := classify(it)
			if err != nil {
				return nil, err
			}
			switch tab := t.(type) {
			case *EdgeTable:
				if len(it.args) != 2 {
					return nil, errAt(it.pos, "edge table %s takes 2 variables, got %d", it.table, len(it.args))
				}
				src, dst := it.args[0], it.args[1]
				ea := &EdgeAtom{Table: tab, WeightSlot: -1}
				ea.SrcSlot = p.keySlot(src)
				ea.DstSlot = p.keySlot(dst)
				if first {
					rule.Driver = Driver{Edge: ea}
					p.keyBound[src], p.keyBound[dst] = true, true
				} else {
					if !p.keyBound[src] {
						return nil, errAt(it.pos, "edge atom %s joins on unbound variable %q", it.table, src)
					}
					if p.keyBound[dst] {
						ea.DstBound = true // containment check
					} else {
						p.keyBound[dst] = true
					}
					rule.Atoms = append(rule.Atoms, Atom{Edge: ea})
				}
			case *VecTable:
				if len(it.args) != 2 {
					return nil, errAt(it.pos, "keyed table %s takes [key](value), got %d args", it.table, len(it.args))
				}
				key, val := it.args[0], it.args[1]
				va := &VecAtom{Table: tab}
				va.KeySlot = p.keySlot(key)
				va.ValSlot = p.valSlot(val)
				if first {
					rule.Driver = Driver{Vec: va}
					p.keyBound[key] = true
				} else {
					if !p.keyBound[key] {
						return nil, errAt(it.pos, "table %s joins on unbound variable %q", it.table, key)
					}
					rule.Atoms = append(rule.Atoms, Atom{Vec: va})
				}
				p.valBound[val] = true
			default:
				return nil, errAt(it.pos, "table %q has unsupported kind %T", it.table, t)
			}
			first = false
		case assignment:
			if first {
				return nil, errAt(it.pos, "rule cannot start with an assignment")
			}
			for _, v := range it.expr.vars() {
				if !p.valBound[v] {
					return nil, errAt(it.pos, "assignment %s = … uses unbound variable %q", it.variable, v)
				}
			}
			out := p.valSlot(it.variable)
			fn := it.expr.compile(p.valSlots)
			rule.Atoms = append(rule.Atoms, Atom{Let: &Let{OutSlot: out, F: fn}})
			p.valBound[it.variable] = true
		}
	}

	// Head resolution.
	ht, ok := p.reg.Lookup(head.table)
	if !ok {
		return nil, errAt(head.pos, "unknown head table %q", head.table)
	}
	headVec, ok := ht.(*VecTable)
	if !ok {
		return nil, errAt(head.pos, "head table %q must be a keyed table", head.table)
	}
	rule.Head.Table = headVec
	rule.Head.Agg = head.agg
	if head.keyLit {
		rule.Head.KeySlot = -1
	} else {
		if !p.keyBound[head.keyVar] {
			return nil, errAt(head.keyPos, "head key %q never bound in body", head.keyVar)
		}
		rule.Head.KeySlot = p.keySlot(head.keyVar)
	}
	if head.isValueLit {
		if head.valLit != 1 {
			return nil, errAt(head.valPos, "only $INC(1) literals are supported, got %v", head.valLit)
		}
		rule.Head.ValSlot = -1
	} else {
		if !p.valBound[head.valVar] {
			return nil, errAt(head.valPos, "head value %q never bound in body", head.valVar)
		}
		rule.Head.ValSlot = p.valSlot(head.valVar)
	}
	rule.KeySlots = len(p.keySlots)
	rule.ValSlots = len(p.valSlots)
	return rule, nil
}
