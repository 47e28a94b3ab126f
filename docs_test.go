package kmem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docsChecked are the documents whose backticked Go names must resolve.
var docsChecked = []string{"DESIGN.md", "README.md"}

// goDecls is what the tree's Go files declare: each package's names —
// its top-level ones, and the fields and methods of the types it
// declares, since the docs write a method as pkg.Method — and each
// type's fields and methods (embedded types' members included), keyed
// by the type's name in whichever package declares it.
// strings holds the string literals, so a name the docs quote — a
// fault point, a benchmark metric — resolves to the literal that
// defines it.
type goDecls struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	strings map[string]bool
}

// parseTree parses every Go file under root, tests included (the docs
// name test helpers too), skipping testdata, hidden directories and
// build output.
func parseTree(t *testing.T, root string) *goDecls {
	t.Helper()
	d := &goDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, strings: map[string]bool{}}
	embeds := map[string][]string{} // type -> embedded type names
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := d.pkgs[f.Name.Name]
		if pkg == nil {
			pkg = map[string]bool{}
			d.pkgs[f.Name.Name] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					d.strings[v] = true
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				pkg[decl.Name.Name] = true
				if decl.Recv != nil {
					d.member(recvType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						pkg[spec.Name.Name] = true
						for _, m := range d.typeMembers(spec, embeds) {
							pkg[m] = true
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							pkg[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promote embedded types' members, to any depth.
	for changed := true; changed; {
		changed = false
		for typ, inner := range embeds {
			for _, in := range inner {
				for m := range d.members[in] {
					if !d.members[typ][m] {
						d.member(typ, m)
						changed = true
					}
				}
			}
		}
	}
	return d
}

func (d *goDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

// typeMembers records a struct's fields or an interface's methods, and
// the types either embeds, and returns the names it recorded.
func (d *goDecls) typeMembers(spec *ast.TypeSpec, embeds map[string][]string) (names []string) {
	typ := spec.Name.Name
	d.member(typ, "") // the type exists, even with no members
	var fields *ast.FieldList
	switch st := spec.Type.(type) {
	case *ast.StructType:
		fields = st.Fields
	case *ast.InterfaceType:
		fields = st.Methods
	default:
		// A defined type or an alias has its target's members.
		if in := recvType(spec.Type); in != "" {
			embeds[typ] = append(embeds[typ], in)
		}
		return nil
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if in := recvType(f.Type); in != "" {
				embeds[typ] = append(embeds[typ], in)
				names = append(names, in)
			}
		}
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	for _, n := range names {
		d.member(typ, n)
	}
	return names
}

// recvType names the type of a receiver or embedded field: T, *T,
// pkg.T, T[P].
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	}
	return ""
}

var (
	fence    = regexp.MustCompile("(?ms)^```.*?^```")
	backtick = regexp.MustCompile("`([^`]+)`")
	// dotted is pkg.Name, Type.Member or pkg.Type.Member, a method
	// optionally written as a call with no arguments; (*T).M and (T).M
	// are normalised to T.M first.
	dotted  = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){1,2}(\(\))?$`)
	recvFmt = regexp.MustCompile(`^\(\*?([A-Za-z_]\w*)\)\.`)
	fileExt = regexp.MustCompile(`\.(go|md|json|sh|yml|yaml|txt|mod|sum|kmtr|out|prof|test)$`)
)

// resolve reports whether a backticked name resolves. ok is false only
// when the name is in one of the checked forms and names nothing: a
// name whose first part is neither a package of the tree nor a type it
// declares (a local variable, the standard library) is not checked, nor
// is a file name or a string the code spells out.
func (d *goDecls) resolve(name string) (checked, ok bool) {
	name = recvFmt.ReplaceAllString(name, "$1.")
	if !dotted.MatchString(name) || fileExt.MatchString(name) || d.strings[name] {
		return false, true
	}
	parts := strings.Split(strings.TrimSuffix(name, "()"), ".")
	if pkg, isPkg := d.pkgs[parts[0]]; isPkg && parts[0] != "main" {
		if !pkg[parts[1]] {
			return true, false
		}
		if len(parts) == 3 {
			return true, d.members[parts[1]][parts[2]]
		}
		return true, true
	}
	if _, isType := d.members[parts[0]]; isType && len(parts) == 2 {
		return true, d.members[parts[0]][parts[1]]
	}
	return false, true
}

// TestDocsNameExistingIdentifiers fails on any backticked pkg.Name,
// Type.Field or Type.Method in DESIGN.md or README.md that no Go file
// of the tree declares, so a rename or a deletion cannot leave the
// documents naming code that is gone.
func TestDocsNameExistingIdentifiers(t *testing.T) {
	d := parseTree(t, ".")
	for _, doc := range docsChecked {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank the fenced blocks, keeping their lines so the line
		// numbers below stay the document's.
		text := fence.ReplaceAllStringFunc(string(b), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		checked := 0
		for _, m := range backtick.FindAllStringSubmatchIndex(text, -1) {
			name := text[m[2]:m[3]]
			c, ok := d.resolve(name)
			if c {
				checked++
			}
			if !ok {
				line := 1 + strings.Count(text[:m[0]], "\n")
				t.Errorf("%s:%d names `%s`, which no Go file declares", doc, line, name)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no backticked Go name was checked; the parser found nothing to resolve", doc)
		}
	}
}
