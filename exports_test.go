package ptrider_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported functions and methods that stay
// although no non-test code uses them, each with the reason. A key is
// "<import path>.<Func>", "<import path>.<Type>.<Method>", or
// "<import path>.*" for a whole package.
var testOnlyAllowlist = map[string]string{
	"ptrider/internal/testnet.*": "test support: only tests import the package",

	"ptrider/internal/wal.ArmDir":                "wal fault seam: the crash harness arms a journal directory before building what journals there",
	"ptrider/internal/wal.Injector.Arm":          "wal fault seam: arms a named crash point",
	"ptrider/internal/wal.Injector.ArmTornWrite": "wal fault seam: arms a torn batch write",
	"ptrider/internal/wal.Injector.Fired":        "wal fault seam: tells the harness whether the armed fault fired",
	"ptrider/internal/wal.TruncateTail":          "wal fault seam: cuts a segment's tail for recovery tests",
	"ptrider/internal/wal.FlipByte":              "wal fault seam: corrupts a segment byte for recovery tests",

	"ptrider/internal/core.Engine.SetVehicleStepFault": "the one fleet-failure seam: no public call fails a fleet step, and core, server and router tests fault engines they reach through other packages",

	"ptrider/internal/relay.Scheduler.SetCommitOverride":    "relay crash-window seam: multicity and cluster tests fail leg 2 inside a Router whose engines they do not construct",
	"ptrider/internal/relay.Scheduler.PendingCompensations": "relay crash-window seam: those tests poll the leg releases a failed commit left pending",
	"ptrider/internal/multicity.Coordinator.RelayScheduler": "relay crash-window seam: how those tests reach a Router's scheduler",

	"ptrider/internal/core.Engine.Settled":              "BenchmarkMetroQuote's exact settled/op counter reads it",
	"ptrider/internal/multicity.Router.CheckInvariants": "a checker: router tests run it after scripted traffic",
	"ptrider/internal/multicity.Router.Engine":          "router tests reach one city's engine through it; the coordinator's service surface hides the engines",
	"ptrider/internal/pricing.Model.Price":              "the paper's §2.4 fare formula, the reference the engine's option prices are compared against",
}

// TestNoTestOnlyExports fails for every exported function or method of
// a non-test file that no other non-test code uses: product packages
// export what product code calls, and a view or seam that only tests
// read belongs in a test file. The users are the module's non-test
// files and bench/, which compiles against the tree. The public facade
// (ptrider.go) is exempt, and so are methods that satisfy an interface,
// whose callers go through it. Everything else that stays needs an
// entry with its reason in testOnlyAllowlist, and an entry whose symbol
// is gone or used again fails too.
func TestNoTestOnlyExports(t *testing.T) {
	s := newExportScan()
	for _, p := range listPackages(t, ".", "bench") {
		s.exports[p.ImportPath] = p.Export
		if !p.Standard {
			s.check(t, p)
		}
	}
	for key := range testOnlyAllowlist {
		pkg, whole := strings.CutSuffix(key, ".*")
		switch d := s.decls[key]; {
		case whole && s.checked[pkg] == nil, !whole && d == nil:
			t.Errorf("allowlist entry %s names no exported declaration", key)
		case d != nil && d.used:
			t.Errorf("allowlist entry %s: non-test code uses it now; drop the entry", key)
		}
	}
	exempt := s.interfaceMethods()
	var unused []*exportDecl
	for key, d := range s.decls {
		_, listed := testOnlyAllowlist[key]
		_, pkgListed := testOnlyAllowlist[d.pkg+".*"]
		if !d.used && !exempt[key] && !listed && !pkgListed {
			unused = append(unused, d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	for _, d := range unused {
		t.Errorf("%s (%s): exported, but only tests use it; delete it, move it into a test file, or allowlist it with a reason", d.key, d.pos)
	}
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// listPackages runs `go list -deps -export -json ./...` in each
// directory and returns the packages in dependency order, each once.
func listPackages(t *testing.T, dirs ...string) []*listedPackage {
	t.Helper()
	var out []*listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		raw, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(raw)); ; {
			p := new(listedPackage)
			if err := dec.Decode(p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatalf("go list in %s: %v", dir, err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// exportDecl is one exported function or method of the module.
type exportDecl struct {
	key, pkg string
	pos      token.Position
	body     *ast.BlockStmt // uses inside it (recursion) do not count
	method   *types.Func    // nil for a function
	used     bool
}

// exportScan type-checks the module and bench/ from source, importing
// the standard library from export data. Declarations are keyed by
// import path, receiver type name and name, so a use through an
// instantiated generic type counts for its declaration.
type exportScan struct {
	fset       *token.FileSet
	std        types.Importer
	exports    map[string]string // import path → export data file
	checked    map[string]*types.Package
	decls      map[string]*exportDecl
	interfaces []*types.Interface // the module's and bench/'s named interfaces
}

func newExportScan() *exportScan {
	s := &exportScan{
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		checked: map[string]*types.Package{},
		decls:   map[string]*exportDecl{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := s.exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	return s
}

// Import serves the module's packages from the scan's own checks and
// the standard library from export data.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

// check type-checks one package from its non-test files, records its
// exported functions and methods unless it lives outside the module
// (bench/) or is the facade, and marks every declaration it uses.
func (s *exportScan) check(t *testing.T, p *listedPackage) {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(p.ImportPath, s.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", p.ImportPath, err)
	}
	s.checked[p.ImportPath] = pkg
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.Parent() == pkg.Scope() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.interfaces = append(s.interfaces, it)
			}
		}
	}
	product := p.Module != nil && p.Module.Path == "ptrider"
	for _, f := range files {
		if !product || p.ImportPath == "ptrider" && filepath.Base(s.fset.Position(f.Pos()).Filename) == "ptrider.go" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			d := &exportDecl{key: funcKey(fn), pkg: p.ImportPath, pos: s.fset.Position(fd.Name.Pos()), body: fd.Body}
			if fd.Recv != nil {
				d.method = fn
			}
			s.decls[d.key] = d
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		d := s.decls[funcKey(fn)]
		if d != nil && (d.body == nil || id.Pos() < d.body.Pos() || id.Pos() >= d.body.End()) {
			d.used = true
		}
	}
}

// funcKey names a function "<path>.<Name>" and a method
// "<path>.<Type>.<Name>".
func funcKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + ".(interface)." + fn.Name()
}

// interfaceMethods returns the keys of the methods through which a
// type satisfies one of the module's interfaces or one of the standard
// library's that its callers use: error, fmt.Stringer, the JSON and
// text (un)marshalers, net/http's Handler, ResponseWriter and Flusher,
// math/rand's Source64, sort's and container/heap's Interface, and
// errors.Is's Is(error) bool.
func (s *exportScan) interfaceMethods() map[string]bool {
	errType := types.Universe.Lookup("error").Type()
	ifaces := append([]*types.Interface{errType.Underlying().(*types.Interface)}, s.interfaces...)
	for _, std := range []struct{ pkg, name string }{
		{"fmt", "Stringer"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
		{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"net/http", "Handler"}, {"net/http", "ResponseWriter"}, {"net/http", "Flusher"},
		{"math/rand", "Source64"},
		{"sort", "Interface"}, {"container/heap", "Interface"},
	} {
		if pkg, err := s.Import(std.pkg); err == nil {
			ifaces = append(ifaces, pkg.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
		}
	}
	isSig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", errType)),
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.Bool])), false)
	ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Is", isSig)}, nil).Complete())

	exempt := map[string]bool{}
	for key, d := range s.decls {
		if d.method == nil {
			continue
		}
		recv := d.method.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range ifaces {
			if hasMethod(it, d.method.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				exempt[key] = true
				break
			}
		}
	}
	return exempt
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
