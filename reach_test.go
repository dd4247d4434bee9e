package s3fifo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reachability gate: every exported function and method in the tree
// (bench/ included) has a use outside _test.go files, and every name in
// internal/policy's builtin registry is named outside that package. Code
// that only its own tests call still has to be read and still counts
// toward the Makefile's LOC_CEILING, so it either gains a caller, moves
// into the test that uses it, or goes.

// allowPackages are whole packages exempt from the gate.
var allowPackages = map[string]string{
	"s3fifo/cache":            "public API, for embedders",
	"s3fifo/client":           "public API, for embedders",
	"s3fifo/cluster":          "public API, for embedders",
	"s3fifo/internal/faultfs": "test-support package: its hooks are called by tests of the stores it wraps",
}

// allowNames are single functions ("pkg.Func") or methods
// ("pkg.Type.Method") exempt from the gate. An entry that the gate would
// not report is itself an error, so the list cannot outlive its reasons.
var allowNames = map[string]string{
	"s3fifo/internal/telemetry.ParseText":    "parses /metrics for the server's and the cache's tests, in other packages",
	"s3fifo/internal/core.S3FIFO.EachQueued": "the differential's accessor: internal/concurrent's tests compare queues against it",
}

// allowRegistry are builtin policy names exempt from the registry check.
var allowRegistry = map[string]string{
	"random": "the sanity reference two policy tests compare every other baseline against",
}

// interfaceMethods are method sets a type implements for a caller that
// the walk cannot see (the standard library). A method is exempt when its
// type declares every method of one of these that contains it.
var interfaceMethods = []struct {
	name    string
	methods []string
}{
	{"sort.Interface", []string{"Len", "Less", "Swap"}},
	{"heap.Interface", []string{"Len", "Less", "Swap", "Push", "Pop"}},
	{"fmt.Stringer", []string{"String"}},
	{"error", []string{"Error"}},
	{"net.Conn", []string{"Read", "Write", "Close", "LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline"}},
	{"net.Listener", []string{"Accept", "Close", "Addr"}},
}

func TestEveryExportHasACaller(t *testing.T) {
	r, err := walkReach(".", "internal/policy", "builtin")
	if err != nil {
		t.Fatal(err)
	}
	findings := r.findings()
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Log("delete it, move it into the test that calls it, or add it to an allowlist in reach_test.go with its reason")
	}
	for name := range allowNames {
		if !r.wouldReport[name] {
			t.Errorf("allowNames entry %s: the gate would not report it; drop the entry", name)
		}
	}
	for name := range allowRegistry {
		if !r.wouldReport["registry "+name] {
			t.Errorf("allowRegistry entry %q: the gate would not report it; drop the entry", name)
		}
	}
}

// TestReachabilityGateReportsFixture runs the walk over a fixture module
// holding one exported function that only a test calls and one registry
// entry nothing names, and checks that the gate reports exactly those.
func TestReachabilityGateReportsFixture(t *testing.T) {
	r, err := walkReach(filepath.Join("testdata", "reach"), "internal/policy", "builtin")
	if err != nil {
		t.Fatal(err)
	}
	got := r.findings()
	want := []string{
		`reachfix/lib.Unused: exported, no use outside _test.go files`,
		`registry name "unnamed" in reachfix/internal/policy: named nowhere outside the package`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

type reachDecl struct {
	pkg, recv, name string // recv is "" for a function
}

func (d reachDecl) key() string {
	if d.recv == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + d.recv + "." + d.name
}

type reachPkg struct {
	name    string
	files   []*ast.File // non-test files only
	imports map[string]bool
}

type reach struct {
	pkgs     map[string]*reachPkg // by import path
	decls    []reachDecl
	methods  map[string]map[string]bool // "pkg.Type" -> declared method names
	funcUses map[string]bool            // "pkg.Func"
	// methodUses maps a method name to the packages whose non-test files
	// select it on a value (x.Name, x not a package).
	methodUses  map[string]map[string]bool
	registryPkg string
	registry    []string
	literals    map[string]bool // string literals outside the registry package
	wouldReport map[string]bool // every finding before the allowlists
}

// walkReach parses every non-test Go file under root, resolving import
// paths from the go.mod of each module it meets. registryDir is the
// registry package's directory relative to root's module, registryVar
// the map variable whose string keys are the registered names.
func walkReach(root, registryDir, registryVar string) (*reach, error) {
	r := &reach{
		pkgs:        map[string]*reachPkg{},
		methods:     map[string]map[string]bool{},
		funcUses:    map[string]bool{},
		methodUses:  map[string]map[string]bool{},
		literals:    map[string]bool{},
		wouldReport: map[string]bool{},
	}
	fset := token.NewFileSet()
	type module struct{ dir, path string }
	var mods []module // innermost last while walking down one branch
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		for len(mods) > 0 && !within(dir, mods[len(mods)-1].dir) {
			mods = mods[:len(mods)-1]
		}
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			mp := modulePath(data)
			if mp == "" {
				return nil
			}
			mods = append(mods, module{dir, mp})
			if dir == root {
				r.registryPkg = mp + "/" + filepath.ToSlash(registryDir)
			}
		}
		if len(mods) == 0 {
			return nil
		}
		m := mods[len(mods)-1]
		rel, _ := filepath.Rel(m.dir, dir)
		ip := m.path
		if rel != "." {
			ip = m.path + "/" + filepath.ToSlash(rel)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p := r.pkgs[ip]
			if p == nil {
				p = &reachPkg{name: f.Name.Name, imports: map[string]bool{}}
				r.pkgs[ip] = p
			}
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip, p := range r.pkgs {
		for _, f := range p.files {
			r.scanFile(ip, p, f, registryVar)
		}
	}
	return r, nil
}

func within(dir, parent string) bool {
	rel, err := filepath.Rel(parent, dir)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// scanFile records what one non-test file declares and uses.
func (r *reach) scanFile(ip string, p *reachPkg, f *ast.File, registryVar string) {
	names := map[string]string{} // local import name -> import path
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		p.imports[ipath] = true
		name := path.Base(ipath)
		if q := r.pkgs[ipath]; q != nil {
			name = q.name
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = ipath
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		d := reachDecl{pkg: ip, name: fd.Name.Name}
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			d.recv = recvType(fd.Recv.List[0].Type)
			t := ip + "." + d.recv
			if r.methods[t] == nil {
				r.methods[t] = map[string]bool{}
			}
			r.methods[t][d.name] = true
		}
		r.decls = append(r.decls, d)
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			// The declared name is not a use of it.
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ipath, ok := names[x.Name]; ok {
					r.funcUses[ipath+"."+n.Sel.Name] = true
					return false
				}
			}
			if r.methodUses[n.Sel.Name] == nil {
				r.methodUses[n.Sel.Name] = map[string]bool{}
			}
			r.methodUses[n.Sel.Name][ip] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			r.funcUses[ip+"."+n.Name] = true
		case *ast.BasicLit:
			if n.Kind == token.STRING && ip != r.registryPkg {
				if s, err := strconv.Unquote(n.Value); err == nil {
					r.literals[s] = true
					for _, part := range strings.Split(s, ",") {
						r.literals[strings.TrimSpace(part)] = true
					}
				}
			}
		case *ast.ValueSpec:
			if ip == r.registryPkg {
				r.readRegistry(n, registryVar)
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// readRegistry collects the string keys of `var <registryVar> = map[string]T{...}`.
func (r *reach) readRegistry(vs *ast.ValueSpec, registryVar string) {
	for i, name := range vs.Names {
		if name.Name != registryVar || i >= len(vs.Values) {
			continue
		}
		cl, ok := vs.Values[i].(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					r.registry = append(r.registry, s)
				}
			}
		}
	}
}

func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// dependsOn reports whether package from imports to, directly or through
// packages in the walk.
func (r *reach) dependsOn(from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	p := r.pkgs[from]
	if p == nil {
		return false
	}
	for imp := range p.imports {
		if r.dependsOn(imp, to, seen) {
			return true
		}
	}
	return false
}

// used reports whether d has a use in a non-test file. A function use is
// package-qualified: pkg.Name from an importing file, or Name inside its
// own package. A method is matched by name, in its own package or in any
// package that depends on it: without type information that is the
// closest the walk can come to the receiver's type.
func (r *reach) used(d reachDecl) bool {
	if d.recv == "" {
		return r.funcUses[d.pkg+"."+d.name]
	}
	for from := range r.methodUses[d.name] {
		if r.dependsOn(from, d.pkg, map[string]bool{}) {
			return true
		}
	}
	return false
}

// implementsExternal reports whether d is a method of an interfaceMethods
// set that its type implements in full.
func (r *reach) implementsExternal(d reachDecl) bool {
	set := r.methods[d.pkg+"."+d.recv]
	for _, iface := range interfaceMethods {
		has, all := false, true
		for _, m := range iface.methods {
			has = has || m == d.name
			all = all && set[m]
		}
		if has && all {
			return true
		}
	}
	return false
}

// findings returns the gate's reports, sorted, after the allowlists, and
// records every report before them in wouldReport.
func (r *reach) findings() []string {
	var out []string
	for _, d := range r.decls {
		if r.used(d) || r.implementsExternal(d) {
			continue
		}
		r.wouldReport[d.key()] = true
		if _, ok := allowPackages[d.pkg]; ok {
			continue
		}
		if _, ok := allowNames[d.key()]; ok {
			continue
		}
		out = append(out, d.key()+": exported, no use outside _test.go files")
	}
	for _, name := range r.registry {
		if r.literals[name] {
			continue
		}
		r.wouldReport["registry "+name] = true
		if _, ok := allowRegistry[name]; ok {
			continue
		}
		out = append(out, "registry name "+strconv.Quote(name)+" in "+r.registryPkg+": named nowhere outside the package")
	}
	sort.Strings(out)
	return out
}
