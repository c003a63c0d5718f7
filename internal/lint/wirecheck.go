package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// WireCheck audits every type that crosses a codec. Its main job is the
// hand-rolled binary codecs' contract, enforced by field-count pins: a
// constant declared as
//
//	//lint:wire <Type>            (or <import/path>.<Type>)
//	const somethingWireFields = N
//
// asserts that the named struct has exactly N fields. The binary codecs
// (internal/remote/codec.go, internal/snapshot/codec.go) encode every
// field explicitly, so adding a field without teaching the codec about
// it would silently drop it on the wire; the pin turns that into a vet
// failure until the codec and the pin are updated together.
//
// Recorded traces are still framed with encoding/gob; a field gob cannot
// encode fails at runtime on the first recording, and an unexported field
// is silently dropped — the trace replays with state missing. So for each
// type passed to (*gob.Encoder).Encode or (*gob.Decoder).Decode, and for
// each pinned type, it walks the reachable type graph and reports:
//
//   - func-, chan-, complex- and unsafe.Pointer-typed fields (gob
//     cannot encode them),
//   - unexported fields (silently dropped),
//   - reachable structs with fields but none exported (encode fails at
//     runtime),
//   - interface-typed fields when the package performs no gob.Register
//     (the concrete types could never decode).
var WireCheck = &Analyzer{
	Name: "wirecheck",
	Doc:  "wire structs match their codec's //lint:wire field-count pins; types crossing gob hold only encodable exported fields",
	Run:  runWireCheck,
}

func runWireCheck(pass *Pass) error {
	var roots []gobRoot
	registers := 0
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/gob" {
				return true
			}
			switch fn.Name() {
			case "Register", "RegisterName":
				registers++
			case "Encode", "Decode":
				if len(call.Args) == 1 {
					if t := pass.Info.TypeOf(call.Args[0]); t != nil {
						roots = append(roots, gobRoot{typ: t, pos: call.Pos()})
					}
				}
			}
			return true
		})
	}

	w := &gobWalker{
		pass:       pass,
		registered: registers > 0,
		seen:       map[types.Type]bool{},
		reported:   map[string]bool{},
	}
	for _, r := range roots {
		w.rootPos = r.pos
		w.walk(r.typ)
	}

	for _, pin := range collectWirePins(pass) {
		t := resolveWireRef(pass, pin.ref)
		if t == nil {
			pass.Reportf(pin.pos, "lint:wire pins unknown type %s", pin.ref)
			continue
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			pass.Reportf(pin.pos, "lint:wire target %s is not a struct", pin.ref)
			continue
		}
		if int64(st.NumFields()) != pin.count {
			pass.Reportf(pin.pos,
				"wire type %s has %d fields but the codec pins %d; update the binary codec and the pin together",
				typeName(t), st.NumFields(), pin.count)
		}
		w.rootPos = pin.pos
		w.walk(t)
	}
	return nil
}

// WireDirective marks a constant as a binary-codec field-count pin.
const WireDirective = "//lint:wire "

// wirePin is one parsed //lint:wire directive: the referenced type and
// the field count the annotated constant pins it to.
type wirePin struct {
	ref   string
	count int64
	pos   token.Pos
}

func collectWirePins(pass *Pass) []wirePin {
	var pins []wirePin
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				doc := vs.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if doc == nil {
					continue
				}
				ref := ""
				for _, c := range doc.List {
					if strings.HasPrefix(c.Text, WireDirective) {
						ref = strings.TrimSpace(strings.TrimPrefix(c.Text, WireDirective))
					}
				}
				if ref == "" || len(vs.Names) != 1 {
					continue
				}
				cobj, ok := pass.Info.Defs[vs.Names[0]].(*types.Const)
				if !ok {
					continue
				}
				n, exact := constant.Int64Val(cobj.Val())
				if !exact {
					continue
				}
				pins = append(pins, wirePin{ref: ref, count: n, pos: vs.Pos()})
			}
		}
	}
	return pins
}

// resolveWireRef resolves a //lint:wire type reference: a bare name in
// the package's own scope, or import/path.Name in an imported package.
func resolveWireRef(pass *Pass, ref string) types.Type {
	scope := pass.Pkg.Scope()
	name := ref
	if i := strings.LastIndex(ref, "."); i >= 0 {
		path, n := ref[:i], ref[i+1:]
		scope = nil
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == path {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return nil
		}
		name = n
	}
	tn, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	return tn.Type()
}

type gobRoot struct {
	typ types.Type
	pos token.Pos
}

type gobWalker struct {
	pass       *Pass
	registered bool
	rootPos    token.Pos
	seen       map[types.Type]bool
	reported   map[string]bool
}

// report emits once per (type, field) pair, anchored at the field's
// declaration when it lives in the analyzed package, else at the
// Encode/Decode call that reaches it.
func (w *gobWalker) report(f *types.Var, format string, args ...any) {
	key := fmt.Sprintf("%v:%s", f.Pos(), format)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	pos := w.rootPos
	if f.Pkg() == w.pass.Pkg {
		pos = f.Pos()
	}
	w.pass.Reportf(pos, format, args...)
}

func (w *gobWalker) walk(t types.Type) {
	if w.seen[t] {
		return
	}
	w.seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		w.walk(u.Elem())
	case *types.Slice:
		w.walk(u.Elem())
	case *types.Array:
		w.walk(u.Elem())
	case *types.Map:
		w.walk(u.Key())
		w.walk(u.Elem())
	case *types.Struct:
		w.walkStruct(t, u)
	}
}

func (w *gobWalker) walkStruct(t types.Type, st *types.Struct) {
	name := typeName(t)
	exported := 0
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			w.report(f, "unexported field %s of wire type %s is silently dropped by gob", f.Name(), name)
			continue
		}
		exported++
		w.checkField(name, f)
	}
	if exported == 0 && st.NumFields() > 0 {
		w.pass.Reportf(w.rootPos, "wire type %s has no exported fields; gob encoding fails at runtime", name)
	}
}

func (w *gobWalker) checkField(owner string, f *types.Var) {
	switch u := f.Type().Underlying().(type) {
	case *types.Signature:
		w.report(f, "field %s of wire type %s is a func; gob cannot encode it", f.Name(), owner)
	case *types.Chan:
		w.report(f, "field %s of wire type %s is a channel; gob cannot encode it", f.Name(), owner)
	case *types.Basic:
		switch u.Kind() {
		case types.Complex64, types.Complex128, types.UnsafePointer:
			w.report(f, "field %s of wire type %s has type %s; gob cannot encode it", f.Name(), owner, u)
		}
	case *types.Interface:
		if !w.registered {
			w.report(f,
				"interface-typed field %s of wire type %s crosses the wire without any gob.Register in this package; concrete values cannot decode",
				f.Name(), owner)
		}
	default:
		w.walk(f.Type())
	}
}

func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return pkg.Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}
