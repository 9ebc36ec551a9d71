package main

import (
	"bufio"
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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listed is the part of a `go list -json` record the scan reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// decl is one exported function or method of the scanned module.
type decl struct {
	name string // import path, receiver type if a method, and name, dot-separated
	pos  string // file:line, relative to the scanned directory
}

// run scans the module at root against the allow-list file and returns the
// problems found, one a line: dead exports that the list does not name, and
// list lines that name nothing dead.
func run(root, allowFile string) ([]string, error) {
	allow, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mods, err := modules(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	var lists [][]listed
	for _, dir := range mods {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if _, ok := exports[p.ImportPath]; !ok {
				exports[p.ImportPath] = p.Export
			}
		}
		lists = append(lists, pkgs)
	}

	used := map[string]bool{}
	ifaces := interfaces{}
	ifaces.addScope(types.Universe)
	var named []*types.Named
	var decls []decl
	for i, pkgs := range lists {
		for _, p := range pkgs {
			if p.Module == nil || !p.Module.Main {
				dep, err := imp.Import(p.ImportPath)
				if err != nil {
					return nil, err
				}
				ifaces.addScope(dep.Scope())
				continue
			}
			files, info, err := check(fset, imp, p)
			if err != nil {
				return nil, err
			}
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[funcName(fn)] = true
				}
			}
			for _, tv := range info.Types {
				ifaces.add(tv.Type)
			}
			for _, obj := range info.Defs {
				if tn, ok := obj.(*types.TypeName); ok {
					ifaces.add(tn.Type())
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						named = append(named, n)
					}
				}
			}
			if i == 0 {
				decls = append(decls, exported(fset, root, files, info)...)
			}
		}
	}
	for _, n := range named {
		ifaces.markImplemented(n, used)
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	var problems []string
	exists := map[string]bool{}
	for _, d := range decls {
		exists[d.name] = true
		if used[d.name] {
			continue
		}
		if _, ok := allow[d.name]; ok {
			delete(allow, d.name)
			continue
		}
		problems = append(problems, d.pos+": "+d.name)
	}
	var stale []string
	for name, line := range allow {
		why := "is used; delete its line"
		if !exists[name] {
			why = "names no exported function or method"
		}
		stale = append(stale, fmt.Sprintf("%s:%d: %s %s", allowFile, line, name, why))
	}
	sort.Strings(stale)
	return append(problems, stale...), nil
}

// modules returns root and every directory under it with its own go.mod,
// skipping testdata, vendor and hidden directories.
func modules(root string) ([]string, error) {
	mods := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if n := d.Name(); n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	return mods, err
}

// goList lists the packages of the module at dir and their dependencies,
// building export data for each.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// check parses and type-checks p's non-test files.
func check(fset *token.FileSet, imp types.Importer, p listed) ([]*ast.File, *types.Info, error) {
	if len(p.CgoFiles) > 0 {
		return nil, nil, fmt.Errorf("%s: cgo files are not supported", p.ImportPath)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, nil, err
	}
	return files, info, nil
}

// exported returns the exported functions and methods declared in files.
func exported(fset *token.FileSet, root string, files []*ast.File, info *types.Info) []decl {
	var out []decl
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			if n, method := receiver(fn); method && (n == nil || !n.Obj().Exported()) {
				continue // a method of an unexported type is no part of the API
			}
			pos := fset.Position(fd.Name.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = rel
			}
			out = append(out, decl{name: funcName(fn), pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
		}
	}
	return out
}

// receiver reports whether fn is a method and returns its receiver's named
// type, nil for a method of an interface literal.
func receiver(fn *types.Func) (n *types.Named, method bool) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ = t.(*types.Named)
	return n, true
}

// funcName names fn the same way whichever type-check produced it: a
// package-level function as path.Name, a method as path.Type.Name. An
// instantiation gets the name of the generic function or method it came
// from, since Obj of an instantiated type is its origin's.
func funcName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	name := fn.Pkg().Path() + "."
	if n, method := receiver(fn); method {
		if n == nil {
			return "" // a method of an interface literal
		}
		name += n.Obj().Name() + "."
	}
	return name + fn.Name()
}

// interfaces holds the method sets of every interface type seen, each as
// its sorted method keys, deduplicated.
type interfaces map[string][]string

func (m interfaces) addScope(s *types.Scope) {
	for _, name := range s.Names() {
		if tn, ok := s.Lookup(name).(*types.TypeName); ok {
			m.add(tn.Type())
		}
	}
}

func (m interfaces) add(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	keys := make([]string, it.NumMethods())
	for i := range keys {
		keys[i] = methodKey(it.Method(i))
	}
	sort.Strings(keys)
	m[strings.Join(keys, ";")] = keys
}

// markImplemented marks as used every method of n, declared or promoted
// through an embedded field, that n or *n supplies to an interface it
// implements: a dynamic call through that interface can reach it. Types
// from different type-checks are compared by method key, so an interface
// read from export data matches a type checked from source.
func (m interfaces) markImplemented(n *types.Named, used map[string]bool) {
	if types.IsInterface(n) {
		return
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	have := make(map[string]*types.Func, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		have[methodKey(fn)] = fn
	}
	for _, keys := range m {
		if len(keys) > len(have) || !implements(have, keys) {
			continue
		}
		for _, k := range keys {
			used[funcName(have[k])] = true
		}
	}
}

func implements(have map[string]*types.Func, keys []string) bool {
	for _, k := range keys {
		if have[k] == nil {
			return false
		}
	}
	return true
}

// methodKey is a method's name and its signature without parameter names,
// with types qualified by package path, so that the same method read from
// source and from export data gives the same key.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(fn.Name())
	tuple := func(t *types.Tuple, variadic bool) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			typ := t.At(i).Type()
			if variadic && i == t.Len()-1 {
				b.WriteString("...")
				typ = typ.(*types.Slice).Elem()
			}
			b.WriteString(types.TypeString(typ, qual))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params(), sig.Variadic())
	tuple(sig.Results(), false)
	return b.String()
}

// readAllow reads the allow-list: name to line number.
func readAllow(file string) (map[string]int, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(strings.Join(strings.Fields(line), " "), " ")
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", file, n, name)
		}
		allow[name] = n
	}
	return allow, sc.Err()
}
