package codecomp

// Guard against exported API that only tests call. Every exported
// top-level function and method under internal/ must be referenced by
// non-test code somewhere in internal/, cmd/, examples/ or perfbench/,
// or be on testOnlyKeep with the reason it stays. testOnlyKeep is the
// one place those reasons live.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyKeep lists exported names with no non-test caller that stay on
// purpose, keyed "pkg.Func" or "pkg.Type.Method" (pkg is the directory
// under internal/).
var testOnlyKeep = map[string]string{
	"huffman.FromLengths":          "builds a decoder-side code from a bare length table, which the huffman, wire and root benchmark tests need without a serialized stream",
	"ir.Module.AppendTree":         "the text-form tree builder the ir, codegen and wire tests write their modules with",
	"native.DecodeFixed":           "the oracle the native tests round-trip EncodeFixed through; EncodeFixed's sizes are the fixed-width baseline",
	"telemetry.NewCollector":       "the in-memory sink fake the telemetry and parallel tests read spans and metrics from",
	"telemetry.Event.IntAttr":      "reads an integer attribute of a parsed trace event, for the telemetry and clitest trace checks",
	"telemetry.Recorder.Counter":   "reads one counter back from a live recorder, for the brisc, compressd, parallel and telemetry tests",
	"telemetry.Recorder.Histogram": "reads one histogram back from a live recorder, for the brisc, parallel and telemetry tests",
}

// ifaceMethods are method names a type can be called through by the
// standard library (fmt, errors, io, sort, container/heap, net/http,
// encoding/json) without a selector of that name in this repository.
var ifaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "ReadByte": true,
	"WriteByte": true, "WriteString": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// exportDecl is one exported function or method declared under internal/.
type exportDecl struct {
	pkg, recv, name string // recv is "" for a function
	pos             token.Position
}

func (d exportDecl) key() string {
	if d.recv == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + d.recv + "." + d.name
}

func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, file{filepath.Dir(path), f})
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}

	// Declarations: exported functions and methods of internal packages.
	var decls []exportDecl
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(fl.dir, "internal"+string(filepath.Separator)))
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			decls = append(decls, exportDecl{pkg: pkg, recv: recvName(fd), name: fd.Name.Name, pos: fset.Position(fd.Pos())})
		}
	}

	// References. A function is used when another package selects it
	// through its import or its own package names it outside its own
	// body. A method is used when any selector anywhere names it outside
	// its own body, or when an interface declared here or in the
	// standard library can reach it.
	funcUsed := map[string]bool{}
	selUsed := map[string]bool{}
	for _, fl := range files {
		pkg := filepath.ToSlash(strings.TrimPrefix(fl.dir, "internal"+string(filepath.Separator)))
		imports := map[string]string{} // local name -> pkg under internal/
		for _, is := range fl.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			rest, ok := strings.CutPrefix(p, "repro/internal/")
			if !ok {
				continue
			}
			local := rest[strings.LastIndex(rest, "/")+1:]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = rest
		}
		for _, d := range fl.f.Decls {
			var self string // the declaration whose body this is
			var body ast.Node = d
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fd.Name.Name
				if fd.Recv != nil {
					self = "." + self
				}
				if fd.Body == nil {
					continue
				}
				body = fd.Body
			}
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							funcUsed[ip+"."+n.Sel.Name] = true
							return false
						}
					}
					if "."+n.Sel.Name != self {
						selUsed[n.Sel.Name] = true
					}
					ast.Inspect(n.X, walk)
					return false
				case *ast.Ident:
					if n.Name != self {
						funcUsed[pkg+"."+n.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							selUsed[name.Name] = true
						}
					}
				}
				return true
			}
			ast.Inspect(body, walk)
		}
	}

	var bad []string
	for _, d := range decls {
		used := false
		if d.recv == "" {
			used = funcUsed[d.pkg+"."+d.name]
		} else {
			used = selUsed[d.name] || ifaceMethods[d.name]
		}
		_, kept := testOnlyKeep[d.key()]
		switch {
		case used && kept:
			t.Errorf("%s: %s has a non-test caller; drop it from testOnlyKeep", d.pos, d.key())
		case !used && !kept:
			bad = append(bad, d.pos.String()+": "+d.key())
		}
	}
	for k, why := range testOnlyKeep {
		if strings.TrimSpace(why) == "" {
			t.Errorf("testOnlyKeep[%q] has no reason", k)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no non-test caller: delete it, or add it to testOnlyKeep with a reason", b)
	}
}

// recvName returns the receiver's type name of a method, "" for a
// function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
