// Package dex defines SDEX, a register-based Dalvik-like bytecode used
// as the analysis substrate standing in for real DEX files. It models
// exactly the abstractions PPChecker's static analysis needs — classes,
// methods, registers, invocations, string constants, fields, and
// control flow — with a textual assembler/disassembler and a pooled
// binary encoding.
package dex

import (
	"fmt"
	"strings"
)

// TypeDesc is a JVM-style type descriptor, e.g. "Lcom/example/Foo;",
// "Ljava/lang/String;", "V", "I", "Z", "[B".
type TypeDesc string

// ClassName returns the dotted class name of an object descriptor:
// "Lcom/example/Foo;" → "com.example.Foo". Non-object types return
// their descriptor unchanged.
func (t TypeDesc) ClassName() string {
	s := string(t)
	if len(s) < 2 || s[0] != 'L' || s[len(s)-1] != ';' {
		return s
	}
	return strings.ReplaceAll(s[1:len(s)-1], "/", ".")
}

// ClassNameHasPrefix reports strings.HasPrefix(t.ClassName(), prefix)
// without building the dotted name.
func (t TypeDesc) ClassNameHasPrefix(prefix string) bool {
	s := string(t)
	if len(s) < 2 || s[0] != 'L' || s[len(s)-1] != ';' {
		return strings.HasPrefix(s, prefix)
	}
	s = s[1 : len(s)-1]
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if c == '/' {
			c = '.'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// MethodRef identifies a method by class, name, and signature.
type MethodRef struct {
	Class TypeDesc
	Name  string
	Sig   string // "(Ljava/lang/String;)V"
}

// String renders the reference in smali notation:
// "Lcom/a/B;->name(Ljava/lang/String;)V".
func (m MethodRef) String() string {
	return string(m.Class) + "->" + m.Name + m.Sig
}

// Compare orders references as their String forms order, returning
// -1, 0 or +1, without building either string.
func (m MethodRef) Compare(o MethodRef) int {
	a := [4]string{string(m.Class), "->", m.Name, m.Sig}
	b := [4]string{string(o.Class), "->", o.Name, o.Sig}
	ai, bi := 0, 0 // current part of each side
	as, bs := a[0], b[0]
	for {
		for as == "" && ai < 3 {
			ai++
			as = a[ai]
		}
		for bs == "" && bi < 3 {
			bi++
			bs = b[bi]
		}
		switch {
		case as == "" && bs == "":
			return 0
		case as == "":
			return -1
		case bs == "":
			return 1
		}
		n := min(len(as), len(bs))
		if c := strings.Compare(as[:n], bs[:n]); c != 0 {
			return c
		}
		as, bs = as[n:], bs[n:]
	}
}

// ParseMethodRef parses smali notation produced by String.
func ParseMethodRef(s string) (MethodRef, error) {
	arrow := strings.Index(s, "->")
	if arrow < 0 {
		return MethodRef{}, fmt.Errorf("dex: invalid method ref %q", s)
	}
	rest := s[arrow+2:]
	paren := strings.IndexByte(rest, '(')
	if paren < 0 {
		return MethodRef{}, fmt.Errorf("dex: invalid method ref %q: no signature", s)
	}
	return MethodRef{
		Class: TypeDesc(s[:arrow]),
		Name:  rest[:paren],
		Sig:   rest[paren:],
	}, nil
}

// ReturnType extracts the return descriptor of a signature.
func ReturnType(sig string) TypeDesc {
	if i := strings.LastIndexByte(sig, ')'); i >= 0 {
		return TypeDesc(sig[i+1:])
	}
	return "V"
}

// ParamTypes extracts the parameter descriptors of a signature.
func ParamTypes(sig string) []TypeDesc {
	open := strings.IndexByte(sig, '(')
	close := strings.LastIndexByte(sig, ')')
	if open < 0 || close < 0 || close < open {
		return nil
	}
	inner := sig[open+1 : close]
	var out []TypeDesc
	for i := 0; i < len(inner); {
		start := i
		for inner[i] == '[' {
			i++
		}
		switch inner[i] {
		case 'L':
			end := strings.IndexByte(inner[i:], ';')
			if end < 0 {
				return out
			}
			i += end + 1
		default:
			i++
		}
		out = append(out, TypeDesc(inner[start:i]))
	}
	return out
}

// FieldRef identifies an instance field.
type FieldRef struct {
	Class TypeDesc
	Name  string
	Type  TypeDesc
}

// String renders the field in smali notation "Lcom/a/B;->name:Ltype;".
func (f FieldRef) String() string {
	return string(f.Class) + "->" + f.Name + ":" + string(f.Type)
}

// Opcode enumerates SDEX instructions.
type Opcode uint8

// The instruction set. It is deliberately small: just enough to express
// data flow (const/move/invoke/field/return) and control flow (if/goto).
const (
	OpNop Opcode = iota
	// OpConstString: A = Str
	OpConstString
	// OpConst: A = Lit
	OpConst
	// OpMove: A = B
	OpMove
	// OpNewInstance: A = new Str (type descriptor)
	OpNewInstance
	// OpInvokeVirtual: A = Args[0].Method(Args[1:]); A == -1 discards
	OpInvokeVirtual
	// OpInvokeStatic: A = Method(Args); A == -1 discards
	OpInvokeStatic
	// OpSGet: A = static field named by Str (full field spec, e.g.
	// "Landroid/provider/Telephony$Sms;->CONTENT_URI:Landroid/net/Uri;")
	OpSGet
	// OpIGet: A = Args[0].Field (Field in Str as "name")
	OpIGet
	// OpIPut: Args[0].Field = B
	OpIPut
	// OpIfZ: if A == 0 jump Target
	OpIfZ
	// OpGoto: jump Target
	OpGoto
	// OpReturn: return A
	OpReturn
	// OpReturnVoid
	OpReturnVoid
)

var opNames = map[Opcode]string{
	OpNop: "nop", OpConstString: "const-string", OpConst: "const",
	OpMove: "move", OpNewInstance: "new-instance",
	OpInvokeVirtual: "invoke-virtual", OpInvokeStatic: "invoke-static",
	OpSGet: "sget", OpIGet: "iget", OpIPut: "iput", OpIfZ: "if-z", OpGoto: "goto",
	OpReturn: "return", OpReturnVoid: "return-void",
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// String returns the mnemonic.
func (o Opcode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one SDEX instruction.
type Instr struct {
	Op     Opcode
	A, B   int       // registers; -1 when unused
	Lit    int64     // integer literal for OpConst
	Str    string    // string constant / type / field name
	Method MethodRef // invoke target
	Args   []int     // invoke argument registers
	Target int       // branch target (instruction index)
}

// Method is a method definition with its code.
type Method struct {
	Name    string
	Sig     string
	Static  bool
	NumRegs int
	Code    []Instr

	// Class is the owning class descriptor, set when the method is
	// added to a class.
	Class TypeDesc
}

// Ref returns the method's reference.
func (m *Method) Ref() MethodRef {
	return MethodRef{Class: m.Class, Name: m.Name, Sig: m.Sig}
}

// NumParams returns the number of declared parameters (excluding the
// receiver).
func (m *Method) NumParams() int { return len(ParamTypes(m.Sig)) }

// ParamReg returns the register holding parameter i. By SDEX
// convention, parameters occupy the first registers: v0 is the receiver
// for instance methods (parameters start at v1); for static methods
// parameters start at v0.
func (m *Method) ParamReg(i int) int {
	if m.Static {
		return i
	}
	return i + 1
}

// Class is a class definition.
type Class struct {
	Name       TypeDesc
	Super      TypeDesc
	Interfaces []TypeDesc
	Fields     []FieldRef
	Methods    []*Method
}

// AddMethod appends a method and sets its owner.
func (c *Class) AddMethod(m *Method) {
	m.Class = c.Name
	c.Methods = append(c.Methods, m)
}

// Method finds a method by name and signature; sig == "" matches the
// first method with the name.
func (c *Class) Method(name, sig string) *Method {
	for _, m := range c.Methods {
		if m.Name == name && (sig == "" || m.Sig == sig) {
			return m
		}
	}
	return nil
}

// Dex is a full bytecode image.
type Dex struct {
	Classes []*Class
}

// Class finds a class by descriptor.
func (d *Dex) Class(name TypeDesc) *Class {
	for _, c := range d.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Lookup resolves a method reference to its definition, walking up the
// superclass chain for virtual dispatch. A superclass cycle (Verify
// does not reject one) ends the walk unresolved.
func (d *Dex) Lookup(ref MethodRef) *Method {
	cls := d.Class(ref.Class)
	for steps := 0; cls != nil && steps <= len(d.Classes); steps++ {
		if m := cls.Method(ref.Name, ref.Sig); m != nil {
			return m
		}
		if cls.Super == "" {
			return nil
		}
		cls = d.Class(cls.Super)
	}
	return nil
}

// MethodCount returns the total number of methods.
func (d *Dex) MethodCount() int {
	n := 0
	for _, c := range d.Classes {
		n += len(c.Methods)
	}
	return n
}
