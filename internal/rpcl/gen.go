package rpcl

import (
	"fmt"
	"go/format"
	"strconv"
	"strings"
)

// GenOptions configure Go code generation.
type GenOptions struct {
	// Package is the Go package name of the generated file.
	Package string
	// XDRImport and RPCImport are the import paths of the runtime
	// packages; they default to this module's implementations.
	XDRImport string
	RPCImport string
}

func (o *GenOptions) defaults() {
	if o.Package == "" {
		o.Package = "rpcgen"
	}
	if o.XDRImport == "" {
		o.XDRImport = "cricket/internal/xdr"
	}
	if o.RPCImport == "" {
		o.RPCImport = "cricket/internal/oncrpc"
	}
}

// Generate emits a complete Go source file for the specification:
// constants, enum/struct/union/typedef types with XDR marshaling,
// and for every program version a typed client plus a server handler
// interface with a dispatch adapter. The output is gofmt-formatted.
func Generate(spec *Spec, opts GenOptions) ([]byte, error) {
	opts.defaults()
	g := &generator{spec: spec, opts: opts, syms: buildSymtab(spec)}
	src, err := g.run()
	if err != nil {
		return nil, err
	}
	out, err := format.Source(src)
	if err != nil {
		// Return the raw source to aid debugging of generator bugs.
		return src, fmt.Errorf("rpcl: generated code does not format: %w", err)
	}
	return out, nil
}

type symtab struct {
	enums    map[string]bool
	structs  map[string]bool
	unions   map[string]bool
	typedefs map[string]*Decl
	consts   map[string]int64
	members  map[string]string // enum member -> Go const name
}

func buildSymtab(spec *Spec) *symtab {
	s := &symtab{
		enums:    make(map[string]bool),
		structs:  make(map[string]bool),
		unions:   make(map[string]bool),
		typedefs: make(map[string]*Decl),
		consts:   make(map[string]int64),
		members:  make(map[string]string),
	}
	for _, e := range spec.Enums {
		s.enums[e.Name] = true
		for _, m := range e.Members {
			s.members[m.Name] = goName(m.Name)
		}
	}
	for _, st := range spec.Structs {
		s.structs[st.Name] = true
	}
	for _, u := range spec.Unions {
		s.unions[u.Name] = true
	}
	for _, t := range spec.Typedefs {
		s.typedefs[t.Decl.Name] = t.Decl
	}
	for _, c := range spec.Consts {
		s.consts[c.Name] = c.Value
	}
	return s
}

type generator struct {
	spec *Spec
	opts GenOptions
	syms *symtab
	b    strings.Builder
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// goName converts an RPCL identifier to an exported Go identifier:
// CUDA_GET_DEVICE_COUNT -> CudaGetDeviceCount, mem_data -> MemData.
func goName(s string) string {
	parts := strings.Split(s, "_")
	var b strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		if isAllUpper(p) {
			p = strings.ToLower(p)
		}
		b.WriteString(strings.ToUpper(p[:1]))
		b.WriteString(p[1:])
	}
	if b.Len() == 0 {
		return "X"
	}
	return b.String()
}

func isAllUpper(s string) bool {
	hasUpper := false
	for _, r := range s {
		if r >= 'a' && r <= 'z' {
			return false
		}
		if r >= 'A' && r <= 'Z' {
			hasUpper = true
		}
	}
	return hasUpper
}

// goFieldName converts an RPCL field name to an exported Go field.
func goFieldName(s string) string { return goName(s) }

// goType maps a type spec to the Go type used for plain declarations.
func (g *generator) goType(ts *TypeSpec) string {
	switch ts.Kind {
	case BaseInt:
		return "int32"
	case BaseUInt:
		return "uint32"
	case BaseHyper:
		return "int64"
	case BaseUHyper:
		return "uint64"
	case BaseFloat:
		return "float32"
	case BaseDouble:
		return "float64"
	case BaseBool:
		return "bool"
	case BaseString:
		return "string"
	case BaseOpaque:
		return "byte"
	case BaseNamed:
		return goName(ts.Name)
	}
	return "any"
}

// declGoType maps a full declaration to its Go field type.
func (g *generator) declGoType(d *Decl) string {
	base := g.goType(d.Type)
	switch d.Kind {
	case DeclPlain:
		if d.Type.Kind == BaseString {
			return "string"
		}
		return base
	case DeclFixedArr, DeclVarArr:
		if d.Type.Kind == BaseString && d.Kind == DeclVarArr && d.Size != "" || d.Type.Kind == BaseString {
			// string<n> is a bounded string, not an array of strings.
			return "string"
		}
		if d.Type.Kind == BaseOpaque {
			return "[]byte"
		}
		return "[]" + base
	case DeclOptional:
		return "*" + base
	}
	return base
}

func (g *generator) sizeExpr(size string) string {
	if size == "" {
		return ""
	}
	if _, err := strconv.ParseInt(size, 0, 64); err == nil {
		return size
	}
	return goName(size) // const reference
}

// encodeDecl emits statements encoding expr (of the decl's Go type).
func (g *generator) encodeDecl(d *Decl, expr string) {
	switch d.Kind {
	case DeclVoid:
		return
	case DeclPlain:
		g.encodePlain(d.Type, expr)
	case DeclFixedArr:
		size := g.sizeExpr(d.Size)
		if d.Type.Kind == BaseOpaque {
			g.pf("if len(%s) != %s { return fmt.Errorf(\"%s: got %%d bytes, want %s\", len(%s)) }\n", expr, size, d.Name, size, expr)
			g.pf("if err := e.PutFixedOpaque(%s); err != nil { return err }\n", expr)
			return
		}
		g.pf("if len(%s) != %s { return fmt.Errorf(\"%s: got %%d elements, want %s\", len(%s)) }\n", expr, size, d.Name, size, expr)
		g.pf("for i := range %s {\n", expr)
		g.encodePlain(d.Type, expr+"[i]")
		g.pf("}\n")
	case DeclVarArr:
		if d.Type.Kind == BaseString {
			if d.Size != "" {
				g.pf("if len(%s) > %s { return fmt.Errorf(\"%s: string too long (%%d)\", len(%s)) }\n", expr, g.sizeExpr(d.Size), d.Name, expr)
			}
			g.pf("if err := e.PutString(%s); err != nil { return err }\n", expr)
			return
		}
		if d.Type.Kind == BaseOpaque {
			if d.Size != "" {
				g.pf("if len(%s) > %s { return fmt.Errorf(\"%s: opaque too long (%%d)\", len(%s)) }\n", expr, g.sizeExpr(d.Size), d.Name, expr)
			}
			g.pf("if err := e.PutOpaque(%s); err != nil { return err }\n", expr)
			return
		}
		if d.Size != "" {
			g.pf("if len(%s) > %s { return fmt.Errorf(\"%s: array too long (%%d)\", len(%s)) }\n", expr, g.sizeExpr(d.Size), d.Name, expr)
		}
		g.pf("if err := e.PutUint32(uint32(len(%s))); err != nil { return err }\n", expr)
		g.pf("for i := range %s {\n", expr)
		g.encodePlain(d.Type, expr+"[i]")
		g.pf("}\n")
	case DeclOptional:
		g.pf("if err := e.PutBool(%s != nil); err != nil { return err }\n", expr)
		g.pf("if %s != nil {\n", expr)
		g.encodePlain(d.Type, "(*"+expr+")")
		g.pf("}\n")
	}
}

// encodePlain emits statements encoding a single value of the base type.
func (g *generator) encodePlain(ts *TypeSpec, expr string) {
	switch ts.Kind {
	case BaseInt:
		g.pf("if err := e.PutInt32(%s); err != nil { return err }\n", expr)
	case BaseUInt:
		g.pf("if err := e.PutUint32(%s); err != nil { return err }\n", expr)
	case BaseHyper:
		g.pf("if err := e.PutInt64(%s); err != nil { return err }\n", expr)
	case BaseUHyper:
		g.pf("if err := e.PutUint64(%s); err != nil { return err }\n", expr)
	case BaseFloat:
		g.pf("if err := e.PutFloat32(%s); err != nil { return err }\n", expr)
	case BaseDouble:
		g.pf("if err := e.PutFloat64(%s); err != nil { return err }\n", expr)
	case BaseBool:
		g.pf("if err := e.PutBool(%s); err != nil { return err }\n", expr)
	case BaseString:
		g.pf("if err := e.PutString(%s); err != nil { return err }\n", expr)
	case BaseOpaque:
		g.pf("if err := e.PutOpaque(%s); err != nil { return err }\n", expr)
	case BaseNamed:
		name := ts.Name
		switch {
		case g.syms.enums[name]:
			g.pf("if err := e.PutInt32(int32(%s)); err != nil { return err }\n", expr)
		default:
			// struct, union, or typedef: has MarshalXDR.
			if strings.HasPrefix(expr, "(*") {
				g.pf("if err := (%s).MarshalXDR(e); err != nil { return err }\n", strings.TrimPrefix(strings.TrimSuffix(expr, ")"), "(*"))
			} else {
				g.pf("if err := (&%s).MarshalXDR(e); err != nil { return err }\n", expr)
			}
		}
	}
}

// decodeDecl emits statements decoding into expr.
func (g *generator) decodeDecl(d *Decl, expr string) {
	switch d.Kind {
	case DeclVoid:
		return
	case DeclPlain:
		g.decodePlain(d.Type, expr)
	case DeclFixedArr:
		size := g.sizeExpr(d.Size)
		if d.Type.Kind == BaseOpaque {
			g.pf("%s = make([]byte, %s)\n", expr, size)
			g.pf("if err := d.FixedOpaque(%s); err != nil { return err }\n", expr)
			return
		}
		g.pf("%s = make([]%s, %s)\n", expr, g.goType(d.Type), size)
		g.pf("for i := range %s {\n", expr)
		g.decodePlain(d.Type, expr+"[i]")
		g.pf("}\n")
	case DeclVarArr:
		if d.Type.Kind == BaseString {
			g.pf("if xv, err := d.String(); err != nil { return err } else { %s = xv }\n", expr)
			if d.Size != "" {
				g.pf("if len(%s) > %s { return fmt.Errorf(\"%s: string too long (%%d)\", len(%s)) }\n", expr, g.sizeExpr(d.Size), d.Name, expr)
			}
			return
		}
		if d.Type.Kind == BaseOpaque {
			g.pf("if xv, err := d.Opaque(); err != nil { return err } else { %s = xv }\n", expr)
			if d.Size != "" {
				g.pf("if len(%s) > %s { return fmt.Errorf(\"%s: opaque too long (%%d)\", len(%s)) }\n", expr, g.sizeExpr(d.Size), d.Name, expr)
			}
			return
		}
		// Every XDR element takes at least 4 wire bytes, so the count is
		// held to what the record can still hold before make sees it.
		g.pf("{\nn, err := d.ArrayLen(4)\nif err != nil { return err }\n")
		if d.Size != "" {
			g.pf("if n > %s { return fmt.Errorf(\"%s: array too long (%%d)\", n) }\n", g.sizeExpr(d.Size), d.Name)
		}
		g.pf("%s = make([]%s, n)\n", expr, g.goType(d.Type))
		g.pf("for i := range %s {\n", expr)
		g.decodePlain(d.Type, expr+"[i]")
		g.pf("}\n}\n")
	case DeclOptional:
		g.pf("{\npresent, err := d.Bool()\nif err != nil { return err }\n")
		g.pf("if present {\n%s = new(%s)\n", expr, g.goType(d.Type))
		g.decodePlain(d.Type, "(*"+expr+")")
		g.pf("} else { %s = nil }\n}\n", expr)
	}
}

func (g *generator) decodePlain(ts *TypeSpec, expr string) {
	simple := func(method, cast string) {
		if cast == "" {
			g.pf("if xv, err := d.%s(); err != nil { return err } else { %s = xv }\n", method, expr)
		} else {
			g.pf("if xv, err := d.%s(); err != nil { return err } else { %s = %s(xv) }\n", method, expr, cast)
		}
	}
	switch ts.Kind {
	case BaseInt:
		simple("Int32", "")
	case BaseUInt:
		simple("Uint32", "")
	case BaseHyper:
		simple("Int64", "")
	case BaseUHyper:
		simple("Uint64", "")
	case BaseFloat:
		simple("Float32", "")
	case BaseDouble:
		simple("Float64", "")
	case BaseBool:
		simple("Bool", "")
	case BaseString:
		simple("String", "")
	case BaseOpaque:
		simple("Opaque", "")
	case BaseNamed:
		name := ts.Name
		switch {
		case g.syms.enums[name]:
			simple("Int32", goName(name))
		default:
			target := expr
			if strings.HasPrefix(expr, "(*") {
				target = strings.TrimPrefix(strings.TrimSuffix(expr, ")"), "(*")
			} else {
				target = "&" + expr
			}
			g.pf("if err := (%s).UnmarshalXDR(d); err != nil { return err }\n", target)
		}
	}
}

func (g *generator) run() ([]byte, error) {
	g.pf("// Code generated by rpcgen (cricket/internal/rpcl); DO NOT EDIT.\n\n")
	g.pf("package %s\n\n", g.opts.Package)

	g.pf("import (\n\t\"context\"\n\t\"fmt\"\n\n\t%q\n\t%q\n)\n\n", g.opts.RPCImport, g.opts.XDRImport)
	g.pf("// Referenced unconditionally so specs that use only a subset of\n")
	g.pf("// features still compile.\nvar (\n\t_ = context.Background\n\t_ = fmt.Errorf\n\t_ oncrpc.Dispatcher\n\t_ xdr.Marshaler\n)\n\n")
	g.emitConsts()
	g.emitEnums()
	g.emitTypedefs()
	g.emitStructs()
	g.emitUnions()
	if err := g.emitPrograms(); err != nil {
		return nil, err
	}
	return []byte(g.b.String()), nil
}

func (g *generator) emitConsts() {
	if len(g.spec.Consts) == 0 {
		return
	}
	g.pf("// Constants from the RPCL specification.\nconst (\n")
	for _, c := range g.spec.Consts {
		g.pf("\t%s = %d\n", goName(c.Name), c.Value)
	}
	g.pf(")\n\n")
}

func (g *generator) emitEnums() {
	for _, e := range g.spec.Enums {
		name := goName(e.Name)
		g.pf("// %s mirrors RPCL enum %s.\ntype %s int32\n\n", name, e.Name, name)
		g.pf("// Values of %s.\nconst (\n", name)
		for _, m := range e.Members {
			g.pf("\t%s %s = %d\n", goName(m.Name), name, m.Value)
		}
		g.pf(")\n\n")
	}
}

func (g *generator) emitTypedefs() {
	for _, t := range g.spec.Typedefs {
		d := t.Decl
		name := goName(d.Name)
		g.pf("// %s mirrors RPCL typedef %s.\ntype %s %s\n\n", name, d.Name, name, g.typedefUnderlying(d))
		// Marshal/Unmarshal via a Decl clone that targets the value.
		g.pf("// MarshalXDR encodes the value in XDR.\n")
		g.pf("func (v *%s) MarshalXDR(e *xdr.Encoder) error {\n", name)
		clone := *d
		clone.Type = d.Type
		g.encodeTypedefValue(&clone, name)
		g.pf("return nil\n}\n\n")
		g.pf("// UnmarshalXDR decodes the value from XDR.\n")
		g.pf("func (v *%s) UnmarshalXDR(d *xdr.Decoder) error {\n", name)
		g.decodeTypedefValue(&clone, name)
		g.pf("return nil\n}\n\n")
	}
}

// typedefUnderlying returns the Go underlying type of a typedef decl.
func (g *generator) typedefUnderlying(d *Decl) string {
	return g.declGoType(d)
}

func (g *generator) encodeTypedefValue(d *Decl, name string) {
	// Named typedef types need conversion to the underlying shape.
	under := g.declGoType(d)
	g.pf("u := %s(*v)\n_ = u\n", under)
	clone := *d
	g.encodeDecl(&clone, "u")
}

func (g *generator) decodeTypedefValue(d *Decl, name string) {
	under := g.declGoType(d)
	g.pf("var u %s\n_ = u\n", under)
	clone := *d
	g.decodeDecl(&clone, "u")
	g.pf("*v = %s(u)\n", name)
}

func (g *generator) emitStructs() {
	for _, s := range g.spec.Structs {
		name := goName(s.Name)
		g.pf("// %s mirrors RPCL struct %s.\ntype %s struct {\n", name, s.Name, name)
		for _, f := range s.Fields {
			g.pf("\t%s %s\n", goFieldName(f.Name), g.declGoType(f))
		}
		g.pf("}\n\n")
		g.pf("// MarshalXDR encodes the struct in XDR field order.\n")
		g.pf("func (v *%s) MarshalXDR(e *xdr.Encoder) error {\n", name)
		for _, f := range s.Fields {
			g.encodeDecl(f, "v."+goFieldName(f.Name))
		}
		g.pf("return nil\n}\n\n")
		g.pf("// UnmarshalXDR decodes the struct in XDR field order.\n")
		g.pf("func (v *%s) UnmarshalXDR(d *xdr.Decoder) error {\n", name)
		for _, f := range s.Fields {
			g.decodeDecl(f, "v."+goFieldName(f.Name))
		}
		g.pf("return nil\n}\n\n")
	}
}

// caseGoValue renders a union case label as a Go expression.
func (g *generator) caseGoValue(v string, disc *Decl) string {
	if v == "TRUE" {
		return "true"
	}
	if v == "FALSE" {
		return "false"
	}
	if _, err := strconv.ParseInt(v, 0, 64); err == nil {
		return v
	}
	return goName(v) // enum member const
}

func (g *generator) emitUnions() {
	for _, u := range g.spec.Unions {
		name := goName(u.Name)
		discField := goFieldName(u.Disc.Name)
		g.pf("// %s mirrors RPCL union %s. The %s field selects the arm.\n", name, u.Name, discField)
		g.pf("type %s struct {\n", name)
		g.pf("\t%s %s\n", discField, g.declGoType(u.Disc))
		for _, c := range u.Cases {
			if c.Arm.Kind != DeclVoid {
				g.pf("\t%s %s\n", goFieldName(c.Arm.Name), g.declGoType(c.Arm))
			}
		}
		if u.Default != nil && u.Default.Kind != DeclVoid {
			g.pf("\t%s %s\n", goFieldName(u.Default.Name), g.declGoType(u.Default))
		}
		g.pf("}\n\n")

		g.pf("// MarshalXDR encodes the active arm selected by %s.\n", discField)
		g.pf("func (v *%s) MarshalXDR(e *xdr.Encoder) error {\n", name)
		g.encodeDecl(u.Disc, "v."+discField)
		g.pf("switch v.%s {\n", discField)
		for _, c := range u.Cases {
			labels := make([]string, len(c.Values))
			for i, cv := range c.Values {
				labels[i] = g.caseGoValue(cv, u.Disc)
			}
			g.pf("case %s:\n", strings.Join(labels, ", "))
			if c.Arm.Kind != DeclVoid {
				g.encodeDecl(c.Arm, "v."+goFieldName(c.Arm.Name))
			}
		}
		g.pf("default:\n")
		if u.Default == nil {
			g.pf("return fmt.Errorf(\"%s: bad discriminant %%v\", v.%s)\n", name, discField)
		} else if u.Default.Kind != DeclVoid {
			g.encodeDecl(u.Default, "v."+goFieldName(u.Default.Name))
		}
		g.pf("}\nreturn nil\n}\n\n")

		g.pf("// UnmarshalXDR decodes the discriminant and the matching arm.\n")
		g.pf("func (v *%s) UnmarshalXDR(d *xdr.Decoder) error {\n", name)
		g.decodeDecl(u.Disc, "v."+discField)
		g.pf("switch v.%s {\n", discField)
		for _, c := range u.Cases {
			labels := make([]string, len(c.Values))
			for i, cv := range c.Values {
				labels[i] = g.caseGoValue(cv, u.Disc)
			}
			g.pf("case %s:\n", strings.Join(labels, ", "))
			if c.Arm.Kind != DeclVoid {
				g.decodeDecl(c.Arm, "v."+goFieldName(c.Arm.Name))
			}
		}
		g.pf("default:\n")
		if u.Default == nil {
			g.pf("return fmt.Errorf(\"%s: bad discriminant %%v\", v.%s)\n", name, discField)
		} else if u.Default.Kind != DeclVoid {
			g.decodeDecl(u.Default, "v."+goFieldName(u.Default.Name))
		}
		g.pf("}\nreturn nil\n}\n\n")
	}
}

// goRetType maps a procedure return type spec to a Go type.
func (g *generator) goRetType(ts *TypeSpec) string {
	if ts.Kind == BaseVoid {
		return ""
	}
	if ts.Kind == BaseNamed && g.syms.enums[ts.Name] {
		return goName(ts.Name)
	}
	return g.goType(ts)
}

func (g *generator) emitPrograms() error {
	for _, prog := range g.spec.Programs {
		progConst := goName(prog.Name)
		g.pf("// %s is the RPC program number of %s.\nconst %s = %#x\n\n", progConst, prog.Name, progConst, prog.Number)
		for _, v := range prog.Versions {
			if err := g.emitVersion(prog, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *generator) emitVersion(prog *ProgramDef, v *VersionDef) error {
	versName := goName(v.Name)
	g.pf("// %s is version %d of program %s.\nconst %s = %d\n\n", versName, v.Number, prog.Name, versName, v.Number)

	g.pf("// Procedure numbers of %s.\nconst (\n", v.Name)
	for _, p := range v.Procs {
		g.pf("\tProc%s = %d\n", goName(p.Name), p.Number)
	}
	g.pf(")\n\n")

	// Keyed elements size the array to the highest procedure number
	// plus one; a gap in the numbering is an empty name.
	g.pf("// %sProcNames holds the RPCL name of every procedure of %s,\n// indexed by procedure number.\n", versName, v.Name)
	g.pf("var %sProcNames = [...]string{\n", versName)
	for _, p := range v.Procs {
		g.pf("\tProc%s: %q,\n", goName(p.Name), p.Name)
	}
	g.pf("}\n\n")

	cliName := versName + "Client"
	g.pf("// %s is a typed client for program %s version %d.\n", cliName, prog.Name, v.Number)
	g.pf("type %s struct {\n\tRPC *oncrpc.Client\n}\n\n", cliName)
	g.pf("// New%s wraps an established RPC client.\n", cliName)
	g.pf("func New%s(rpc *oncrpc.Client) *%s { return &%s{RPC: rpc} }\n\n", cliName, cliName, cliName)

	handlerName := versName + "Handler"
	var handlerSigs []string

	for _, p := range v.Procs {
		mName := goName(p.Name)
		var params, argNames []string
		for i, a := range p.Args {
			params = append(params, fmt.Sprintf("a%d %s", i, g.goRetType(a)))
			argNames = append(argNames, fmt.Sprintf("a%d", i))
		}
		retType := g.goRetType(p.Ret)
		if p.Ret.Kind != BaseVoid && !g.isStructReturn(p.Ret) && !g.isScalar(p.Ret) {
			return fmt.Errorf("rpcl: procedure %s: unsupported return type %s", p.Name, p.Ret)
		}
		results, sig := "error", "error"
		if retType != "" {
			results, sig = fmt.Sprintf("(ret %s, err error)", retType), fmt.Sprintf("(%s, error)", retType)
		}
		handlerSigs = append(handlerSigs, fmt.Sprintf("%s(%s) %s", mName, strings.Join(params, ", "), sig))

		// Client methods: a plain form that waits without bound, and a
		// Context form carrying a per-call deadline. Arguments and
		// results are coded by closures that stay on the stub's stack:
		// a call allocates nothing for them.
		g.pf("// %s invokes RPC procedure %s (%d).\n", mName, p.Name, p.Number)
		g.pf("func (c *%s) %s(%s) %s {\n", cliName, mName, strings.Join(params, ", "), sig)
		g.pf("return c.%sContext(%s)\n}\n\n", mName, strings.Join(append([]string{"context.Background()"}, argNames...), ", "))
		g.pf("// %sContext is %s bounded by a per-call context.\n", mName, mName)
		g.pf("func (c *%s) %sContext(%s) %s {\n", cliName, mName, strings.Join(append([]string{"ctx context.Context"}, params...), ", "), results)
		if retType != "" {
			g.pf("err = ")
		} else {
			g.pf("return ")
		}
		g.pf("c.RPC.Do(ctx, Proc%s, ", mName)
		if len(p.Args) > 0 {
			g.pf("func(e *xdr.Encoder) error {\n")
			for i, a := range p.Args {
				g.encodeArgTS(a, argNames[i])
			}
			g.pf("return nil\n}, ")
		} else {
			g.pf("nil, ")
		}
		if retType != "" {
			g.pf("func(d *xdr.Decoder) error {\n")
			g.decodeArgTS(p.Ret, "ret")
			g.pf("return nil\n})\nreturn\n}\n\n")
		} else {
			g.pf("nil)\n}\n\n")
		}
	}

	// Handler interface + registration.
	g.pf("// %s is the server-side interface of program %s version %d.\n", handlerName, prog.Name, v.Number)
	g.pf("type %s interface {\n", handlerName)
	for _, sig := range handlerSigs {
		g.pf("\t%s\n", sig)
	}
	g.pf("}\n\n")

	dispName := "dispatcher" + versName
	g.pf("// %s adapts a %s to oncrpc.Dispatcher. When the handler\n", dispName, handlerName)
	g.pf("// additionally implements oncrpc.ConnEnder or oncrpc.ReplyVerfer,\n")
	g.pf("// those calls are forwarded to it (per-connection handlers use\n")
	g.pf("// them for teardown and backpressure hints).\n")
	g.pf("type %s struct{ h %s }\n\n", dispName, handlerName)
	g.pf("// New%sDispatcher wraps h as an oncrpc.Dispatcher.\n", versName)
	g.pf("func New%sDispatcher(h %s) oncrpc.Dispatcher { return %s{h} }\n\n", versName, handlerName, dispName)
	g.pf("// ConnEnd forwards connection teardown to the handler when it\n// cares (oncrpc.ConnEnder).\n")
	g.pf("func (dp %s) ConnEnd() {\n", dispName)
	g.pf("if ce, ok := dp.h.(oncrpc.ConnEnder); ok { ce.ConnEnd() }\n}\n\n")
	g.pf("// ReplyVerf forwards reply-verifier stamping to the handler when\n// it implements oncrpc.ReplyVerfer.\n")
	g.pf("func (dp %s) ReplyVerf() oncrpc.OpaqueAuth {\n", dispName)
	g.pf("if rv, ok := dp.h.(oncrpc.ReplyVerfer); ok { return rv.ReplyVerf() }\n")
	g.pf("return oncrpc.OpaqueAuth{}\n}\n\n")
	g.pf("// Register%s registers h with an RPC server, shared by every\n// connection.\n", versName)
	g.pf("func Register%s(srv *oncrpc.Server, h %s) {\n", versName, handlerName)
	g.pf("srv.Register(%s, %s, %s{h})\n}\n\n", goName(prog.Name), versName, dispName)
	g.pf("// Register%sConn registers a per-connection handler factory: each\n", versName)
	g.pf("// connection gets its own handler from f, whose ConnEnd (if\n")
	g.pf("// implemented) runs when that connection ends.\n")
	g.pf("func Register%sConn(srv *oncrpc.Server, f func() %s) {\n", versName, handlerName)
	g.pf("srv.RegisterConn(%s, %s, func() oncrpc.Dispatcher { return %s{f()} })\n}\n\n", goName(prog.Name), versName, dispName)
	g.pf("// Dispatch executes one procedure (oncrpc.Dispatcher).\n")
	g.pf("func (dp %s) Dispatch(proc uint32, d *xdr.Decoder, e *xdr.Encoder) error {\n", dispName)
	g.pf("h := dp.h\n")
	g.pf("switch proc {\n")
	for _, p := range v.Procs {
		mName := goName(p.Name)
		g.pf("case Proc%s:\n", mName)
		callArgs := make([]string, len(p.Args))
		if len(p.Args) > 0 {
			for i, a := range p.Args {
				callArgs[i] = fmt.Sprintf("a%d", i)
				g.pf("var %s %s\n", callArgs[i], g.goRetType(a))
			}
			g.pf("if err := func() error {\n")
			for i, a := range p.Args {
				g.decodeArgTS(a, callArgs[i])
			}
			g.pf("return nil\n}(); err != nil { return fmt.Errorf(\"%%w: %%v\", oncrpc.ErrGarbageArgs, err) }\n")
		}
		call := fmt.Sprintf("h.%s(%s)", mName, strings.Join(callArgs, ", "))
		if p.Ret.Kind == BaseVoid {
			g.pf("return %s\n", call)
		} else {
			g.pf("ret, err := %s\nif err != nil { return err }\n", call)
			g.encodeArgTS(p.Ret, "ret")
			g.pf("return nil\n")
		}
	}
	g.pf("default:\nreturn oncrpc.ErrProcUnavail\n}\n}\n\n")
	return nil
}

// isScalar reports whether a return type is one the decoder yields
// directly: a number, a bool, a string or an enum.
func (g *generator) isScalar(ts *TypeSpec) bool {
	switch ts.Kind {
	case BaseInt, BaseUInt, BaseHyper, BaseUHyper, BaseFloat, BaseDouble, BaseBool, BaseString:
		return true
	}
	return ts.Kind == BaseNamed && g.syms.enums[ts.Name]
}

// isStructReturn reports whether a return type has its own XDR methods.
func (g *generator) isStructReturn(ts *TypeSpec) bool {
	if ts.Kind != BaseNamed {
		return false
	}
	return g.syms.structs[ts.Name] || g.syms.unions[ts.Name] || g.syms.typedefs[ts.Name] != nil
}

// encodeArgTS encodes a bare type-spec value (procedure arg/return).
func (g *generator) encodeArgTS(ts *TypeSpec, expr string) {
	if ts.Kind == BaseNamed && g.syms.enums[ts.Name] {
		g.pf("if err := e.PutInt32(int32(%s)); err != nil { return err }\n", expr)
		return
	}
	g.encodePlain(ts, expr)
}

// decodeArgTS decodes a bare type-spec value.
func (g *generator) decodeArgTS(ts *TypeSpec, expr string) {
	if ts.Kind == BaseNamed && g.syms.enums[ts.Name] {
		g.pf("if xv, err := d.Int32(); err != nil { return err } else { %s = %s(xv) }\n", expr, goName(ts.Name))
		return
	}
	g.decodePlain(ts, expr)
}
