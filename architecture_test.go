package knives_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The module's architecture, stated as data: each rule below is a set of
// limits on facts an index of the module's non-test Go code (bench/
// excluded) records. The index reads code only — comments are dropped at
// parse time and only the group-commit rule looks at string literals — and
// resolves a selector x.F through its file's import specs, aliases
// included, so a rule fails on code and never on prose. A call argument's
// type is named from syntax alone (see typeName), enough for the codec
// and search-cache rules and no more.

const module = "knives"

// A factKind names what a fact records.
type factKind string

const (
	declared factKind = "declared" // a declared name: func, method, type, var, const, field, parameter
	used     factKind = "used"     // any other identifier, and the name of every selector
	imported factKind = "imported" // an import spec
	compared factKind = "compared" // a selector under ==, != or a switch tag
	quoted   factKind = "quoted"   // a string literal's value
	passed   factKind = "passed"   // a call argument whose type the index can name
)

// A fact is one thing the index found in one package.
type fact struct {
	kind factKind
	// pkg is what the name belongs to: for a declaration, its package; for
	// a use, the import path a package selector resolves to, or the using
	// package's own path for a bare identifier it declares at package
	// level ("" for a field, a method, or a local).
	pkg  string
	recv string // a method's receiver type, without the star; a struct field's struct
	// name is the identifier; for an import, the imported path; for a
	// string literal, its value.
	name    string
	typeArg string // the first type argument a used name is instantiated with; a passed argument's type; "func" for a func-typed field
	call    bool   // a used name is the callee of a call
	from    string // the import path of the package the fact is in
	fn      string // enclosing func: "checkWindow", "(ExecOptions).normalized"; "" at package level
	pos     token.Pos
}

func (f fact) describe(fset *token.FileSet) string {
	what := f.name
	if f.pkg != "" && f.pkg != f.from {
		what = f.pkg + "." + f.name
	}
	if f.kind == imported || f.kind == quoted {
		what = strconv.Quote(f.name)
	}
	if f.recv != "" {
		what = "(" + f.recv + ")." + f.name
	}
	switch {
	case f.kind == passed:
		what += "(" + f.typeArg + ")"
	case f.kind == declared && f.typeArg != "":
		what += " " + f.typeArg
	case f.typeArg != "":
		what += "[" + f.typeArg + ", …]"
	}
	s := fmt.Sprintf("%s: %s %s", fset.Position(f.pos), f.kind, what)
	if f.call {
		s += " (call)"
	}
	if f.fn != "" {
		s += " in " + f.fn
	}
	return s
}

// A pattern selects facts. An empty field matches anything; a from, pkg or
// fn field starting with "!" matches anything but the rest.
type pattern struct {
	kind    factKind
	from    string
	pkg     string
	recv    string
	names   []string // any of these; nil matches any name
	typeArg string
	call    bool // only calls
	fn      string
}

func (p pattern) matches(f fact) bool {
	is := func(want, got string) bool {
		if neg, ok := strings.CutPrefix(want, "!"); ok {
			return got != neg
		}
		return want == "" || want == got
	}
	return (p.kind == "" || p.kind == f.kind) && is(p.from, f.from) && is(p.pkg, f.pkg) &&
		is(p.recv, f.recv) && (p.names == nil || slices.Contains(p.names, f.name)) &&
		is(p.typeArg, f.typeArg) && (!p.call || f.call) && is(p.fn, f.fn)
}

// A limit says how many facts may match: none, or exactly want.
type limit struct {
	match pattern
	want  int
}

// A rule is a named set of limits, plus the packages a command's import
// closure must not reach.
type rule struct {
	name     string
	limits   []limit
	root     string
	unlinked []string
}

func pkgPath(dir string) string { return module + "/" + dir }

var (
	advisor        = pkgPath("internal/advisor")
	operator       = pkgPath("internal/operator")
	storage        = pkgPath("internal/storage")
	statestore     = pkgPath("internal/statestore")
	replayPkg      = pkgPath("internal/replay")
	migratePkg     = pkgPath("internal/migrate")
	experimentsPkg = pkgPath("internal/experiments")
	attrsetPkg     = pkgPath("internal/attrset")
	costPkg        = pkgPath("internal/cost")
)

// none forbids every fact the pattern matches.
func none(p pattern) limit { return limit{match: p} }

// deleted forbids declaring or using any of the names, anywhere.
func deleted(names ...string) limit { return none(pattern{names: names}) }

var architecture = []rule{
	{name: "one bottom-up loop", limits: []limit{
		// The pre-kernel merge loop is the GreedyMerge kernel's test oracle.
		deleted("GreedyMergeReference"),
		// HYRISE prices through the kernel's evaluator, not candidate by candidate.
		none(pattern{kind: used, from: pkgPath("internal/algo/hyrise"), names: []string{"Eval"}, call: true}),
	}},
	{name: "one compute-once cache", limits: []limit{
		none(pattern{kind: used, from: "!" + statestore, pkg: "sync", names: []string{"Once"}}),
	}},
	{name: "one executor", limits: []limit{
		// Engine.Scan and the row operators are test oracles.
		none(pattern{kind: declared, pkg: storage, recv: "Engine", names: []string{"Scan"}}),
		none(pattern{kind: declared, pkg: operator, names: []string{"NewScan", "NewSelect", "NewReconJoin", "NewProject"}}),
		// Only ExecOptions.normalized looks at an exec mode.
		none(pattern{kind: used, pkg: operator, names: []string{"ExecRow", "ExecVector"}, fn: "!(ExecOptions).normalized"}),
		none(pattern{kind: compared, names: []string{"Mode", "ExecMode", "Exec"}, fn: "!(ExecOptions).normalized"}),
	}},
	{name: "one pass per request", limits: []limit{
		// A replay runs its workload's pipelines as one lockstep group on
		// the request's goroutine, σ once per batch and each shared column
		// prefix folded once; a pipeline run on its own would pay for both
		// again, and a group pool would pay for a fold per extra group.
		none(pattern{kind: used, from: replayPkg, names: []string{"Run", "RunFunc"}}),
		{match: pattern{kind: used, from: replayPkg, pkg: operator, names: []string{"RunGroup"}, call: true}, want: 1},
		deleted("lockstepGroups"),
		none(pattern{kind: imported, from: replayPkg, names: []string{"sync"}}),
	}},
	{name: "one row format", limits: []limit{
		// Where an attribute lies in a partition row is the epoch's row
		// format (storage.ColLoc, Snapshot.Format), laid out once per epoch;
		// a plan binds its columns to it at build. No cursor, batch or
		// partition keeps a per-attribute copy, and no state is sized by
		// MaxAttrs instead of the table but the row RunFunc hands out.
		deleted("ColSpec", "newLeafBatch"),
		none(pattern{kind: declared, pkg: storage, names: []string{"offsets", "widths"}}),
		none(pattern{kind: declared, pkg: operator, names: []string{"offs", "width"}}),
		none(pattern{kind: used, from: storage, pkg: attrsetPkg, names: []string{"MaxAttrs"}}),
		{match: pattern{kind: used, from: operator, pkg: attrsetPkg, names: []string{"MaxAttrs"}}, want: 1},
	}},
	{name: "one report chain", limits: []limit{
		// /replay is /query without a selection: every execution goes through
		// the one cache of executed reports, every engine through the store
		// registry.
		none(pattern{kind: used, from: advisor, pkg: pkgPath("internal/replay"), names: []string{"Layout", "Operators"}, call: true}),
		deleted("replayEntries", "OnEngine"),
		none(pattern{kind: declared, pkg: advisor, recv: "Tracker", names: []string{"Observe"}}),
		{match: pattern{kind: used, from: advisor, pkg: statestore, names: []string{"OnceCache"}, typeArg: "execKey"}, want: 1},
		{match: pattern{kind: used, from: advisor, pkg: statestore, names: []string{"NewOnceCache"}, typeArg: "execKey", call: true}, want: 1},
	}},
	{name: "one drift tracker", limits: []limit{
		none(pattern{kind: imported, names: []string{pkgPath("internal/sketch")}}),
		deleted("DriftTracking", "SketchCapacity", "IngestShards", "IngestGroup", "SyncEvery"),
	}},
	{name: "one drift shadow", limits: []limit{
		// The advisor reaches O2P once: the shadow over the window's
		// attribute-set summary, in checkWindow.
		{match: pattern{kind: used, from: advisor, pkg: pkgPath("internal/algo/o2p")}, want: 1},
		{match: pattern{kind: used, from: advisor, pkg: pkgPath("internal/algo/o2p"), names: []string{"Layout"}, call: true, fn: "checkWindow"}, want: 1},
	}},
	{name: "one group commit", limits: []limit{
		// An /observe request commits its own rounds; the state store's
		// combining commit is the only queue.
		deleted("ingestShard", "ingester", "DefaultIngestShards", "DefaultIngestGroup", "mergeContexts", "fnv32a"),
		none(pattern{kind: quoted, names: []string{"knives_ingest_queue_depth"}}),
	}},
	{name: "one way to observe", limits: []limit{
		// Observations enter through Service.ObserveBatchID, named and
		// batched; the single-table and numeric entry points are gone.
		none(pattern{kind: declared, pkg: advisor, recv: "Service", names: []string{
			"Observe", "ObserveContext", "ObserveNamed", "ObserveNamedContext", "ObserveBatch"}}),
		none(pattern{kind: declared, pkg: advisor, recv: "Client", names: []string{"Observe"}}),
		deleted("validateLocked", "observeOne"),
	}},
	{name: "one checksum definition", limits: []limit{
		// storage/digest.go defines the row checksum for every executor.
		none(pattern{kind: imported, from: operator, names: []string{"hash/fnv"}}),
		none(pattern{kind: imported, from: storage, names: []string{"hash/fnv"}}),
	}},
	{name: "the digest is a sum over cells", limits: []limit{
		// A checksum is a sum of per-cell terms keyed by (row id,
		// attribute): a group hashes each referenced cell once per request
		// into its column's total, and a query adds its columns' totals. The
		// per-row chain and the prefix trie of row-hash vectors that shared
		// its work stay deleted.
		deleted("prefixNode", "scratchRows", "FoldColumn", "FoldRows", "SeedRows"),
	}},
	{name: "one observe/advice codec", limits: []limit{
		// /observe decodes and observe verdicts and advice encode through
		// the hand-written codec, never through reflection.
		none(pattern{kind: passed, from: advisor, names: []string{"decodeRequest", "decodeBody"}, typeArg: "ObserveRequest"}),
		none(pattern{kind: passed, from: advisor, names: []string{"writeJSON"}, typeArg: "ObserveResponse"}),
		none(pattern{kind: passed, from: advisor, names: []string{"writeJSON"}, typeArg: "AdviseResponse"}),
		none(pattern{kind: passed, from: advisor, names: []string{"writeJSON"}, typeArg: "TableAdviceWire"}),
	}},
	{name: "executed reports encode by hand", limits: []limit{
		// /query and /replay answer through the codec's appender like
		// /observe and /advise; reflection encodes only the cold bodies of
		// /migrate, /tables, /stats and /healthz. A query's result rows are
		// its stats' tuples, counted once.
		{match: pattern{kind: used, from: advisor, pkg: advisor, names: []string{"writeJSON"}, call: true}, want: 4},
		none(pattern{kind: declared, pkg: replayPkg, names: []string{"ResultRows"}}),
	}},
	{name: "one search cache for the suite's benchmark", limits: []limit{
		// An experiment searches the suite's own benchmark through the
		// layout cache, keyed by (algorithm, device); only Fig1's timed
		// searches stay uncached, and they seed it.
		{match: pattern{kind: passed, from: experimentsPkg, names: []string{"runAll"}, typeArg: "Suite.Bench"}, want: 2},
		{match: pattern{kind: passed, from: experimentsPkg, names: []string{"runAll"}, typeArg: "Suite.Bench", fn: "(*Suite).searched"}, want: 1},
		{match: pattern{kind: passed, from: experimentsPkg, names: []string{"runAll"}, typeArg: "Suite.Bench", fn: "timeAlgorithm"}, want: 1},
	}},
	{name: "no knob that changes no number", limits: []limit{
		// Pool widths and batch sizes are the service's: no request, advisor
		// option, executor option or CLI flag carries a worker count or a
		// batch size that cannot change a reported number.
		deleted("ExecWorkers", "MaxReplayWorkers"),
		none(pattern{kind: declared, pkg: advisor, names: []string{"Workers", "BatchSize"}}),
		none(pattern{kind: declared, pkg: operator, names: []string{"Workers"}}),
		none(pattern{kind: quoted, from: pkgPath("cmd/knives"), names: []string{"workers", "exec-workers"}}),
	}},
	{name: "one selection form", limits: []limit{
		// σ is attribute < bound over a little-endian u32 column, from the
		// wire to the executor: no second comparison form, no predicate
		// closure, and one root execution API (Execute*) for reports.
		deleted("U32GreaterEq", "U64Less", "predForm"),
		none(pattern{kind: declared, pkg: operator, recv: "Pred", typeArg: "func"}),
		none(pattern{pkg: module, names: []string{"ReplayLayout", "ReplayAlgorithm", "ReplayBenchmark", "ReplayAdvice"}}),
	}},
	{name: "one reader, one writer", limits: []limit{
		// Storage moves bytes through two primitives: PartCursor reads, for
		// a scan and a repartition alike, and one partition writer writes,
		// for a load and a repartition alike; so the buffer-refill rule is
		// written twice, once per direction. The cache line is the device's,
		// fixed when the engine is built.
		deleted("readMovedPart", "writeMovedPart", "loadPart", "SetCacheLine", "DefaultCacheLine"),
		none(pattern{kind: declared, pkg: storage, recv: "Snapshot", names: []string{"CacheLine"}}),
		none(pattern{kind: declared, pkg: storage, recv: "Engine", names: []string{"gen"}}),
		{match: pattern{kind: used, from: storage, pkg: costPkg, names: []string{"BufferShare"}}, want: 2},
		{match: pattern{kind: used, from: storage, pkg: costPkg, names: []string{"BufferShare"}, fn: "(*Snapshot).Cursor"}, want: 1},
		{match: pattern{kind: used, from: storage, pkg: costPkg, names: []string{"BufferShare"}, fn: "(*Engine).writePart"}, want: 1},
	}},
	{name: "answers come from the generator", limits: []limit{
		// /migrate materializes one store and checks what it answers against
		// the data generator (replay.Expected), not against a second store
		// that the same writer filled; the oracle hashes cell by cell and
		// shares no column kernel with the executor it checks.
		deleted("checksumOracle"),
		none(pattern{kind: declared, pkg: migratePkg, recv: "Report", names: []string{"Fresh"}}),
		none(pattern{kind: used, from: migratePkg, pkg: replayPkg, names: []string{"Layout"}}),
		{match: pattern{kind: used, from: migratePkg, pkg: replayPkg, names: []string{"Materialize"}}, want: 1},
		{match: pattern{kind: declared, pkg: replayPkg, names: []string{"Expected"}}, want: 1},
		none(pattern{kind: used, from: replayPkg, pkg: storage, names: []string{"SumColumn"}, fn: "Expected"}),
	}},
	{name: "knivesd links what it serves",
		root: pkgPath("cmd/knivesd"),
		// The daemon races AutoPart, HillClimb and HYRISE, and its drift
		// shadow runs O2P (which calls into Navathe); the registry and the
		// knives it alone reaches are the CLI's and the experiments'.
		unlinked: []string{
			pkgPath("internal/algorithms"),
			pkgPath("internal/algo/bruteforce"),
			pkgPath("internal/algo/trojan"),
			pkgPath("internal/experiments"),
			pkgPath("internal/experiments/compress"),
			pkgPath("internal/faultinject"),
			pkgPath("internal/metrics"),
			pkgPath("internal/workgen"),
		}},
}

// pkg is one parsed package of the module.
type pkg struct {
	name  string
	files map[string]*file // by slash path from the module root
}

// file is one parsed file and the facts found in it.
type file struct {
	syntax  *ast.File
	facts   []fact
	named   map[string][]fact // facts by name
	imports []string
}

// index is the module's non-test code by import path.
type index struct {
	fset *token.FileSet
	pkgs map[string]*pkg
}

// parseModule parses every non-test Go file under the module root at dir,
// skipping bench/, testdata and the directories the go tool ignores.
func parseModule(dir string) (*index, error) {
	ix := &index{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	err := fs.WalkDir(os.DirFS(dir), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (p == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(filepath.Join(dir, p))
		if err != nil {
			return err
		}
		_, err = ix.add(p, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	for ip, p := range ix.pkgs {
		top, res := p.topLevel(), p.results()
		for _, f := range p.files {
			ix.extract(ip, top, res, f)
		}
	}
	return ix, nil
}

// add parses one file into its package. Comments are not parsed.
func (ix *index) add(name string, src []byte) (*file, error) {
	syntax, err := parser.ParseFile(ix.fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	ip := importPath(name)
	p := ix.pkgs[ip]
	if p == nil {
		p = &pkg{name: syntax.Name.Name, files: map[string]*file{}}
		ix.pkgs[ip] = p
	}
	f := &file{syntax: syntax}
	p.files[name] = f
	return f, nil
}

// importPath returns the import path of the package a file is in.
func importPath(name string) string {
	if dir := path.Dir(name); dir != "." {
		return pkgPath(dir)
	}
	return module
}

// planted returns a copy of the index with one file's source replaced.
// Only that file is indexed again.
func (ix *index) planted(name string, src []byte) (*index, error) {
	ip := importPath(name)
	old := ix.pkgs[ip]
	if old == nil || old.files[name] == nil {
		return nil, fmt.Errorf("%s is not in the index", name)
	}
	cp := &index{fset: ix.fset, pkgs: maps.Clone(ix.pkgs)}
	cp.pkgs[ip] = &pkg{name: old.name, files: maps.Clone(old.files)}
	f, err := cp.add(name, src)
	if err != nil {
		return nil, err
	}
	cp.extract(ip, cp.pkgs[ip].topLevel(), cp.pkgs[ip].results(), f)
	return cp, nil
}

// results returns, for each function a package declares at package level
// with a named first result, that result's type name.
func (p *pkg) results() map[string]string {
	res := map[string]string{}
	for _, f := range p.files {
		for _, d := range f.syntax.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.Results != nil {
				if id := nameOf(fd.Type.Results.List[0].Type); id != nil {
					res[fd.Name.Name] = id.Name
				}
			}
		}
	}
	return res
}

// topLevel returns the names a package declares at package level.
func (p *pkg) topLevel() map[string]bool {
	top := map[string]bool{}
	for _, f := range p.files {
		for _, d := range f.syntax.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					top[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						top[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[n.Name] = true
						}
					}
				}
			}
		}
	}
	return top
}

// extract records the facts of one file of the package at import path ip,
// which declares the names in top at package level and the functions in
// results with their result types.
func (ix *index) extract(ip string, top map[string]bool, results map[string]string, f *file) {
	f.facts, f.named, f.imports = nil, map[string][]fact{}, nil
	imports := map[string]string{} // local name -> import path
	for _, s := range f.syntax.Imports {
		imp, _ := strconv.Unquote(s.Path.Value)
		f.imports = append(f.imports, imp)
		f.facts = append(f.facts, fact{kind: imported, name: imp, from: ip, pos: s.Pos()})
		local := imp[strings.LastIndex(imp, "/")+1:]
		if q := ix.pkgs[imp]; q != nil {
			local = q.name
		}
		if s.Name != nil {
			local = s.Name.Name
		}
		imports[local] = imp
	}
	// pkgOf resolves x in x.F to an import path.
	pkgOf := func(x ast.Expr) (string, bool) {
		id, ok := x.(*ast.Ident)
		if !ok {
			return "", false
		}
		imp, ok := imports[id.Name]
		return imp, ok
	}
	var fn string
	var locals map[string]string       // the enclosing func's variables by type name
	decl := map[*ast.Ident]bool{}      // identifiers recorded as declarations
	callee := map[*ast.Ident]bool{}    // identifiers that name a called function
	typeArg := map[*ast.Ident]string{} // instantiated names -> first type argument
	record := func(x fact) {
		x.from, x.fn = ip, fn
		f.facts = append(f.facts, x)
	}
	declare := func(id *ast.Ident, recv string) {
		decl[id] = true
		record(fact{kind: declared, pkg: ip, recv: recv, name: id.Name, pos: id.Pos()})
	}
	use := func(id *ast.Ident, pkg string) {
		record(fact{kind: used, pkg: pkg, name: id.Name, typeArg: typeArg[id], call: callee[id], pos: id.Pos()})
	}
	compare := func(x ast.Expr) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			record(fact{kind: compared, name: sel.Sel.Name, pos: sel.Pos()})
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.TypeSpec:
			declare(n.Name, "")
			if st, ok := n.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					_, isFunc := fl.Type.(*ast.FuncType)
					for _, id := range fl.Names {
						decl[id] = true
						x := fact{kind: declared, pkg: ip, recv: n.Name.Name, name: id.Name, pos: id.Pos()}
						if isFunc {
							x.typeArg = "func"
						}
						record(x)
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declare(id, "")
			}
		case *ast.Field:
			for _, id := range n.Names {
				if !decl[id] {
					declare(id, "")
				}
			}
		case *ast.CallExpr:
			if id := nameOf(n.Fun); id != nil {
				callee[id] = true
				for _, a := range n.Args {
					if typ := typeName(a, locals, results); typ != "" {
						record(fact{kind: passed, name: id.Name, typeArg: typ, pos: a.Pos()})
					}
				}
			}
		case *ast.IndexExpr:
			if id, arg := nameOf(n.X), nameOf(n.Index); id != nil && arg != nil {
				typeArg[id] = arg.Name
			}
		case *ast.IndexListExpr:
			if id, arg := nameOf(n.X), nameOf(n.Indices[0]); id != nil && arg != nil {
				typeArg[id] = arg.Name
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				compare(n.X)
				compare(n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				compare(n.Tag)
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if v, err := strconv.Unquote(n.Value); err == nil {
					record(fact{kind: quoted, name: v, pos: n.Pos()})
				}
			}
		case *ast.SelectorExpr:
			if imp, ok := pkgOf(n.X); ok {
				use(n.Sel, imp)
				return false
			}
			use(n.Sel, "")
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if decl[n] {
				return false
			}
			owner := ""
			if top[n.Name] {
				owner = ip
			}
			use(n, owner)
		}
		return true
	}
	for _, d := range f.syntax.Decls {
		fn, locals = "", localTypes(d, results)
		if fd, ok := d.(*ast.FuncDecl); ok {
			recv := ""
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if id := nameOf(fd.Recv.List[0].Type); id != nil {
					recv = id.Name
				}
			}
			declare(fd.Name, recv)
			fn = fd.Name.Name
			if recv != "" {
				star := ""
				if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					star = "*"
				}
				fn = "(" + star + recv + ")." + fn
			}
		}
		ast.Inspect(d, visit)
	}
	for _, x := range f.facts {
		f.named[x.name] = append(f.named[x.name], x)
	}
}

// typeName names the type of an expression as far as syntax tells it: a
// composite literal's type, a variable's declared type, a package-level
// function's result type, through & and parentheses, and a field of any of
// these as "Type.Field"; "" when it cannot.
func typeName(x ast.Expr, locals, results map[string]string) string {
	switch e := x.(type) {
	case *ast.ParenExpr:
		return typeName(e.X, locals, results)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return typeName(e.X, locals, results)
		}
	case *ast.CompositeLit:
		if id := nameOf(e.Type); id != nil {
			return id.Name
		}
	case *ast.Ident:
		return locals[e.Name]
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			return results[id.Name]
		}
	case *ast.SelectorExpr:
		// A field of a typed variable: s.Bench with s *Suite is "Suite.Bench".
		if t := typeName(e.X, locals, results); t != "" {
			return t + "." + e.Sel.Name
		}
	}
	return ""
}

// localTypes maps the variables a declaration's functions declare —
// parameters, var declarations and := assignments — to their type names,
// ignoring scope: a name declared twice keeps its last type.
func localTypes(d ast.Decl, results map[string]string) map[string]string {
	locals := map[string]string{}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if id := nameOf(n.Type); id != nil {
				for _, name := range n.Names {
					locals[name.Name] = id.Name
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if id := nameOf(n.Type); n.Type != nil && id != nil {
					locals[name.Name] = id.Name
				} else if i < len(n.Values) {
					locals[name.Name] = typeName(n.Values[i], locals, results)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						locals[id.Name] = typeName(n.Rhs[i], locals, results)
					}
				}
			}
		}
		return true
	})
	return locals
}

// nameOf returns the identifier that names an expression's callee, generic
// or type: F for F, x.F, F[T], *F, (F).
func nameOf(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// violations returns what the index breaks of one rule.
func (ix *index) violations(r rule) []string {
	var out []string
	for _, l := range r.limits {
		var hits []fact
		for _, ip := range slices.Sorted(maps.Keys(ix.pkgs)) {
			if from := l.match.from; from != "" && from[0] != '!' && from != ip {
				continue
			}
			files := ix.pkgs[ip].files
			for _, name := range slices.Sorted(maps.Keys(files)) {
				facts := files[name].facts
				if l.match.names != nil {
					facts = nil
					for _, n := range l.match.names {
						facts = append(facts, files[name].named[n]...)
					}
				}
				for _, f := range facts {
					if l.match.matches(f) {
						hits = append(hits, f)
					}
				}
			}
		}
		if len(hits) == l.want {
			continue
		}
		if l.want == 0 {
			for _, f := range hits {
				out = append(out, f.describe(ix.fset))
			}
			continue
		}
		msg := fmt.Sprintf("want exactly %d fact matching %+v, found %d", l.want, l.match, len(hits))
		for _, f := range hits {
			msg += "\n\t" + f.describe(ix.fset)
		}
		out = append(out, msg)
	}
	if r.root != "" {
		for _, p := range r.unlinked {
			if chain := ix.importChain(r.root, p); chain != nil {
				out = append(out, fmt.Sprintf("%s links %s through %s", r.root, p, strings.Join(chain, " -> ")))
			}
		}
	}
	return out
}

// importChain returns a shortest import path from one module package to
// another, or nil when the second is not in the first's closure.
func (ix *index) importChain(from, to string) []string {
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			var chain []string
			for p := cur; p != ""; p = prev[p] {
				chain = append([]string{p}, chain...)
			}
			return chain
		}
		p := ix.pkgs[cur]
		if p == nil {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.imports {
				if _, seen := prev[imp]; !seen {
					prev[imp] = cur
					queue = append(queue, imp)
				}
			}
		}
	}
	return nil
}

// checkNamed fails the test when a rule names a package the index does
// not hold, so a moved package cannot turn its rule vacuous.
func checkNamed(t *testing.T, ix *index) {
	t.Helper()
	for _, r := range architecture {
		named := []string{r.root}
		for _, l := range r.limits {
			named = append(named, strings.TrimPrefix(l.match.from, "!"))
			if strings.HasPrefix(l.match.pkg, module+"/") {
				named = append(named, l.match.pkg)
			}
		}
		for _, p := range named {
			if p != "" && ix.pkgs[p] == nil {
				t.Errorf("%s: rule names %s, which the module does not have", r.name, p)
			}
		}
	}
}

func TestArchitecture(t *testing.T) {
	ix, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	checkNamed(t, ix)
	for _, r := range architecture {
		for _, v := range ix.violations(r) {
			t.Errorf("%s: %s", r.name, v)
		}
	}
	if !t.Failed() {
		t.Run("plants", func(t *testing.T) { checkPlants(t, ix) })
	}
}

// Every rule fails on planted code and passes on the same text planted as
// a comment. A plant goes in right after the first occurrence of its
// anchor; an empty anchor appends it to the file.
var plants = []struct {
	rule, file, anchor, code string
}{
	{"one bottom-up loop", "internal/algo/greedy.go", "", "func GreedyMergeReference() {}"},
	{"one bottom-up loop", "internal/algo/hyrise/hyrise.go", "", "func init() { c.Eval(nil) }"},
	{"one compute-once cache", "internal/advisor/service.go", "", "var _ sync.Once"},
	{"one executor", "internal/storage/engine.go", "", "func (e *Engine) Scan() {}"},
	{"one executor", "internal/operator/vector.go", "", "func NewProject() {}"},
	{"one executor", "internal/replay/replay.go", "", "var _ = operator.ExecVector"},
	{"one executor", "internal/operator/plan.go", "", "func init() { if o.Mode == ExecVector {} }"},
	{"one executor", "internal/replay/replay.go", "", "func init() { switch cfg.ExecMode {} }"},
	{"one pass per request", "internal/replay/replay.go", "", "func init() { var p *operator.Pipeline; p.Run() }"},
	{"one pass per request", "internal/replay/operators.go", "", "func init() { var p *operator.Pipeline; _ = p.RunFunc }"},
	{"one pass per request", "internal/replay/replay.go", "", "func lockstepGroups() {}"},
	{"one pass per request", "internal/replay/operators.go", "package replay\n", `import _ "sync"`},
	{"one row format", "internal/storage/snapshot.go", "", "func (c *PartCursor) ColSpec(a int) (int, int) { return 0, 0 }"},
	{"one row format", "internal/storage/engine.go", "", "type legacyPart struct{ offsets [attrset.MaxAttrs]int }"},
	{"one row format", "internal/operator/vector.go", "", "type legacyBatch struct{ offs, width []int }"},
	{"one row format", "internal/operator/vector.go", "", "var _ [attrset.MaxAttrs]*view"},
	{"one report chain", "internal/advisor/exec.go", "", "func init() { replay.Operators() }"},
	{"one report chain", "internal/replay/replay.go", "", "func OnEngine() {}"},
	{"one report chain", "internal/advisor/drift.go", "", "func (t *Tracker) Observe() {}"},
	{"one report chain", "internal/advisor/service.go", "", "var second *statestore.OnceCache[execKey, int]"},
	{"one drift tracker", "internal/advisor/service.go", "package advisor\n", `import _ "knives/internal/sketch"`},
	{"one drift tracker", "internal/advisor/service.go", "", "var _ = Config{}.SyncEvery"},
	{"one drift shadow", "internal/advisor/drift.go", "", "func init() { o2p.Layout(schema.TableWorkload{}) }"},
	{"one group commit", "internal/advisor/ingest.go", "", "type ingester struct{}"},
	{"one group commit", "internal/advisor/telemetry.go", "", `var _ = "knives_ingest_queue_depth"`},
	{"one way to observe", "internal/advisor/service.go", "", "func (s *Service) ObserveNamed() {}"},
	{"one way to observe", "internal/advisor/client.go", "", "func (c *Client) Observe() {}"},
	{"one way to observe", "internal/advisor/drift.go", "", "func (t *Tracker) validateLocked() {}"},
	{"one checksum definition", "internal/storage/digest.go", "package storage\n", `import _ "hash/fnv"`},
	{"the digest is a sum over cells", "internal/operator/group.go", "", "const scratchRows = 256"},
	{"the digest is a sum over cells", "internal/storage/digest.go", "", "func FoldRows(h uint64, rh []uint64) uint64 { return h }"},
	{"one observe/advice codec", "internal/advisor/server.go", "", "func init() { var req ObserveRequest; decodeRequest(nil, nil, &req) }"},
	{"one observe/advice codec", "internal/advisor/codec.go", "", "func init() { decodeBody(nil, nil, &ObserveRequest{}) }"},
	{"one observe/advice codec", "internal/advisor/server.go", "", "func init() { writeJSON(nil, ObserveResponse{}) }"},
	{"one observe/advice codec", "internal/advisor/server.go", "", "func h(w http.ResponseWriter) { resp := AdviseResponse{}; writeJSON(w, &resp) }"},
	{"one observe/advice codec", "internal/advisor/server.go", "", "func init() { writeJSON(nil, toWire(TableAdvice{}, Fingerprint{}, false)) }"},
	{"executed reports encode by hand", "internal/advisor/server.go", "", "func init() { writeJSON(nil, QueryResponse{}) }"},
	{"executed reports encode by hand", "internal/replay/operators.go", "type OperatorReplay struct {\n", "\tResultRows []int64"},
	{"one search cache for the suite's benchmark", "internal/experiments/tables.go", "", "func init() { var s *Suite; runAll(nil, s.Bench, nil) }"},
	{"one search cache for the suite's benchmark", "internal/experiments/device.go", "", "func (s *Suite) again(a algo.Algorithm) { b := s.Bench; runAll(a, b, s.model()) }"},
	{"no knob that changes no number", "internal/replay/replay.go", "", "var _ = Config{}.ExecWorkers"},
	{"no knob that changes no number", "internal/advisor/replay.go", "", "const MaxReplayWorkers = 256"},
	{"no knob that changes no number", "internal/advisor/replay.go", "", "type legacyOptions struct{ Workers, BatchSize int }"},
	{"no knob that changes no number", "internal/operator/plan.go", "", "type legacyExec struct{ Workers int }"},
	{"no knob that changes no number", "cmd/knives/main.go", "", `var _ = flag.Int("workers", 0, "")`},
	{"one selection form", "internal/operator/pred.go", "", "func U64Less(attr int, bound uint64) Pred { return Pred{} }"},
	{"one selection form", "internal/operator/pred.go", "", "type predForm uint8"},
	{"one selection form", "internal/operator/pred.go", "type Pred struct {\n", "\tMatch func(col []byte) bool"},
	{"one selection form", "replay.go", "", "func ReplayLayout() {}"},
	{"one selection form", "cmd/knives/main.go", "", "func init() { knives.ReplayAdvice() }"},
	{"one reader, one writer", "internal/storage/repartition.go", "", "func (e *Engine) readMovedPart() {}"},
	{"one reader, one writer", "internal/storage/repartition.go", "", "func (e *Engine) writeMovedPart() {}"},
	{"one reader, one writer", "internal/storage/engine.go", "", "func (e *Engine) loadPart() {}"},
	{"one reader, one writer", "internal/storage/engine.go", "", "func (e *Engine) SetCacheLine(bytes int64) error { return nil }"},
	{"one reader, one writer", "internal/storage/engine.go", "", "const DefaultCacheLine = 64"},
	{"one reader, one writer", "internal/storage/snapshot.go", "", "func (s *Snapshot) CacheLine() int64 { return s.disk.CacheLineSize }"},
	{"one reader, one writer", "internal/storage/engine.go", "type Engine struct {\n", "\tgen *Generator"},
	{"one reader, one writer", "internal/storage/engine.go", "", "func (e *Engine) readShare(p *enginePart, total int64) int64 { return cost.BufferShare(e.disk.BufferSize, int64(p.rowSize), total) }"},
	{"one reader, one writer", "internal/storage/snapshot.go", "p := &s.ep.parts[i]\n", "\t_ = cost.BufferShare"},
	{"answers come from the generator", "internal/replay/replay.go", "", "func checksumOracle() {}"},
	{"answers come from the generator", "internal/migrate/migrate.go", "type Report struct {\n", "\tFresh *replay.TableReplay"},
	{"answers come from the generator", "internal/migrate/migrate.go", "", "func init() { replay.Layout(schema.TableWorkload{}, partition.Partitioning{}, \"\", Config{}) }"},
	{"answers come from the generator", "internal/migrate/migrate.go", "", "func init() { _, _ = replay.Materialize(schema.TableWorkload{}, partition.Partitioning{}, Config{}) }"},
	{"answers come from the generator", "internal/replay/operators.go", "", "func Expected() {}"},
	{"answers come from the generator", "internal/replay/replay.go", "\tt, gen := tw.Table, storage.NewGenerator(seed)\n", "\tstorage.SumColumn(nil, 0, 0, 0, 0, 0, nil, 0)"},
	{"knivesd links what it serves", "internal/advisor/service.go", "package advisor\n", `import _ "knives/internal/metrics"`},
	{"knivesd links what it serves", "internal/replay/replay.go", "package replay\n", `import _ "knives/internal/algo/trojan"`},
	{"knivesd links what it serves", "internal/advisor/advisor.go", "package advisor\n", `import _ "knives/internal/algorithms"`},
}

// checkPlants plants each of plants, as code and as a comment, into a copy
// of the tree's index, and checks the aliased drift shadow.
func checkPlants(t *testing.T, ix *index) {
	byName := map[string]rule{}
	for _, r := range architecture {
		byName[r.name] = r
	}
	plant := func(t *testing.T, file string, edit func(string) string) *index {
		t.Helper()
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.planted(file, []byte(edit(string(src))))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	broken := func(ix *index) []string {
		var out []string
		for _, r := range architecture {
			if len(ix.violations(r)) > 0 {
				out = append(out, r.name)
			}
		}
		return out
	}
	covered := map[string]bool{}
	for _, p := range plants {
		r, ok := byName[p.rule]
		if !ok {
			t.Fatalf("plant for unknown rule %q", p.rule)
		}
		covered[p.rule] = true
		insert := func(text string) func(string) string {
			return func(src string) string {
				if p.anchor == "" {
					return src + "\n" + text + "\n"
				}
				if !strings.Contains(src, p.anchor) {
					t.Fatalf("%s has no %q", p.file, p.anchor)
				}
				return strings.Replace(src, p.anchor, p.anchor+text+"\n", 1)
			}
		}
		if len(plant(t, p.file, insert(p.code)).violations(r)) == 0 {
			t.Errorf("%s: planting %q in %s breaks nothing", p.rule, p.code, p.file)
		}
		if b := broken(plant(t, p.file, insert("// "+p.code))); len(b) > 0 {
			t.Errorf("%s: the comment %q in %s breaks %v", p.rule, "// "+p.code, p.file, b)
		}
	}
	for _, r := range architecture {
		if !covered[r.name] {
			t.Errorf("rule %q has no plant", r.name)
		}
	}

	// The drift shadow is found by what it calls, not how the file spells it.
	const o2p = `"knives/internal/algo/o2p"`
	aliased := func(src string) string {
		if !strings.Contains(src, o2p) || !strings.Contains(src, "o2p.Layout(") || !strings.Contains(src, "summary") {
			t.Fatal("drift.go no longer spells the shadow the way this test rewrites it")
		}
		src = strings.Replace(src, o2p, "shadowing "+o2p, 1)
		src = strings.ReplaceAll(src, "o2p.Layout(", "shadowing.Layout(")
		return strings.ReplaceAll(src, "summary", "distinctSets")
	}
	if b := broken(plant(t, "internal/advisor/drift.go", aliased)); len(b) > 0 {
		t.Errorf("aliasing o2p and renaming summary breaks %v", b)
	}
	if b := broken(plant(t, "internal/advisor/drift.go", func(src string) string {
		return aliased(src) + "\nfunc init() { shadowing.Layout(schema.TableWorkload{}) }\n"
	})); !slices.Equal(b, []string{"one drift shadow"}) {
		t.Errorf("a second call through the alias breaks %v, want [one drift shadow]", b)
	}
}
