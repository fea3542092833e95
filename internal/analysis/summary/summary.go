// Package summary computes per-function effect summaries for the
// prudence-vet analyzers and propagates them to fixpoint over the
// module's call graph — the interprocedural layer that lets sleepcheck,
// retirecheck, lockorder and guardedby reason across function
// boundaries instead of conservatively forgetting state at every call.
//
// For every function declared in a module-local package, the summary
// records:
//
//   - may-block: the function can suspend the calling goroutine — a
//     channel send/receive, a select without default, a range over a
//     channel, time.Sleep, sync.WaitGroup.Wait / sync.Cond.Wait, a raw
//     syscall, a grace-period wait (Synchronize*/WaitElapsed*/Barrier,
//     by interface annotation or name), or a call to any function whose
//     summary may block.
//   - may-lock: the function can acquire a blocking (sleeping) mutex —
//     sync.Mutex/RWMutex.Lock or an annotated non-spin lock class.
//     Spin-class acquisitions (//prudence:lockorder <rank> spin) are
//     deliberately excluded: they never sleep, and taking one under a
//     read-side section is legal, as in the kernel.
//   - acquires: every annotated lock class the function (transitively)
//     acquires — lockorder's input for call-site rank checks.
//   - net-held / net-read: annotated classes still held, and the
//     read-side depth change, when the function returns — so a helper
//     that locks and returns locked, or enters a read-side section for
//     its caller, propagates that state (lockstate.CallEffects).
//   - retires: which parameters (receiver included) are passed —
//     directly or through callees — to a FreeDeferred method:
//     retirecheck's input for interprocedural double-retire and
//     use-after-retire.
//
// Summaries are propagated callee-to-caller in reverse topological
// order over the call graph's strongly connected components; recursive
// components iterate to fixpoint (effects are monotone and bounded, so
// the iteration terminates).
//
// Soundness gaps (documented in DESIGN.md §8): function values and
// closures passed as arguments are not attributed to the receiving
// call; goroutine bodies are excluded (they run concurrently); calls
// through interfaces merge no concrete summaries and rely on the
// //prudence:may_block annotation or the wait-method name table;
// reflection is invisible.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"prudence/internal/analysis/annot"
	"prudence/internal/analysis/lockstate"
)

// Reason says why an effect holds, positioned at its source.
type Reason struct {
	Pos  token.Pos
	What string
}

// FuncEffect is one function's computed effect summary.
type FuncEffect struct {
	Key     string
	Pos     token.Pos
	HasBody bool
	// MayBlockAnnot records a //prudence:may_block declaration on the
	// function itself (verified by sleepcheck against the computed
	// effects).
	MayBlockAnnot bool

	// Blocks is non-nil when the function may suspend the goroutine.
	Blocks *Reason
	// LocksMutex is non-nil when the function may acquire a blocking
	// (non-spin) lock.
	LocksMutex *Reason
	// Acquires maps every annotated lock class the function may
	// (transitively) acquire to a representative position.
	Acquires map[string]token.Pos
	// AcquiresIndexed marks classes acquired through an indexed
	// receiver somewhere in the chain (shards[i].mu) — the escalation
	// idiom lockorder must not flag across calls.
	AcquiresIndexed map[string]bool
	// NetRead is the net read-side depth change at return.
	NetRead int
	// Retires maps argument index → reason. Index 0 is the receiver
	// for methods; parameters follow. For plain functions parameters
	// start at 0.
	Retires map[int]*Reason

	netHeld map[string]int // class key → net acquisitions held at exit

	d direct // immutable direct effects; fixpoint folds callees on top
}

// NetHeld returns the annotated class keys still held when the
// function returns, sorted.
func (f *FuncEffect) NetHeld() []string {
	var out []string
	for k, n := range f.netHeld {
		if n > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// NetReleased returns the annotated class keys the function releases
// on its caller's behalf (more textual unlocks than locks — pagealloc's
// unlockFrom), sorted. The count is flow-insensitive, so a function
// whose every early-return path unlocks once can tally negative too;
// over-releasing is the safe direction (the walker's held set clamps
// at empty).
func (f *FuncEffect) NetReleased() []string {
	var out []string
	for k, n := range f.netHeld {
		if n < 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

type callsite struct {
	key  string
	pos  token.Pos
	stmt bool // statement-level: net effects apply to the caller
	// argParams[i] is the caller parameter index passed as callee
	// argument i (receiver = 0), or -1.
	argParams []int
}

type direct struct {
	blocks, locksMutex *Reason
	acquires           map[string]token.Pos
	acquiresIndexed    map[string]bool
	netRead            int
	netHeld            map[string]int
	retires            map[int]*Reason
	calls              []callsite
}

// Pkg is one module-local package's source and type information.
type Pkg struct {
	Path  string
	Files []*ast.File
	Info  *types.Info
}

// Set is the module-wide summary table.
type Set struct {
	funcs map[string]*FuncEffect
	table *annot.Table
}

// Func returns the summary for key, or nil. A nil Set has no
// summaries (the methods tolerate it so analyzers can hand a possibly
// absent Set straight to lockstate.Walker.Callees).
func (s *Set) Func(key string) *FuncEffect {
	if s == nil {
		return nil
	}
	return s.funcs[key]
}

// Len returns the number of summarized functions.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.funcs)
}

// Keys returns every summarized function key, sorted.
func (s *Set) Keys() []string {
	out := make([]string, 0, len(s.funcs))
	for k := range s.funcs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NetEffects implements lockstate.CallEffects.
func (s *Set) NetEffects(key string) (held []lockstate.HeldEffect, released []string, readDelta int, ok bool) {
	f := s.Func(key)
	if f == nil {
		return nil, nil, 0, false
	}
	for _, k := range f.NetHeld() {
		held = append(held, lockstate.HeldEffect{Class: k, Indexed: f.AcquiresIndexed[k]})
	}
	return held, f.NetReleased(), f.NetRead, true
}

// Short strips the module-path prefix from a function or class key for
// diagnostics: "prudence/internal/rcu.RCU.Synchronize" →
// "rcu.RCU.Synchronize".
func Short(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// waitMethods are method names that wait for a grace period (or retire
// drain) by contract. They classify calls through interfaces and
// export-data-only functions, where no body is available to analyze;
// the //prudence:may_block annotation is the declarative override.
var waitMethods = map[string]bool{
	"Synchronize":          true,
	"SynchronizeOn":        true,
	"WaitElapsedOnTimeout": true,
	"Barrier":              true,
}

// externalEffect classifies a call against the stdlib blocking tables:
// time.Sleep, sync's waiting primitives, and raw syscalls. Lock-class
// acquisitions are classified separately (they carry annotations).
func externalEffect(fn *types.Func, call *ast.CallExpr) (blocks, locks *Reason) {
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if name == "Sleep" {
			return &Reason{call.Pos(), "calls time.Sleep"}, nil
		}
	case "sync":
		switch name {
		case "Wait": // WaitGroup.Wait, Cond.Wait
			return &Reason{call.Pos(), "calls sync " + recvName(fn) + ".Wait"}, nil
		case "Lock", "RLock":
			return nil, &Reason{call.Pos(), "acquires a sync." + recvName(fn)}
		}
	case "syscall":
		return &Reason{call.Pos(), "calls syscall." + name}, nil
	}
	return nil, nil
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// externalFallback classifies a call to a function with no computed
// summary: a //prudence:may_block declaration (interface methods,
// boundary APIs) or a grace-period wait method by name.
func (s *Set) externalFallback(key string, pos token.Pos) *Reason {
	if key == "" {
		return nil
	}
	if s.table.FuncMayBlock(key) {
		return &Reason{pos, "calls " + Short(key) + " (declared //prudence:may_block)"}
	}
	if i := strings.LastIndex(key, "."); i >= 0 && waitMethods[key[i+1:]] {
		return &Reason{pos, "calls " + Short(key) + ", which waits for a grace period"}
	}
	return nil
}

// CallEffect classifies one call expression against the completed
// summary set: (blocks, locks) reasons, either possibly nil. This is
// sleepcheck's per-call entry point.
func (s *Set) CallEffect(info *types.Info, call *ast.CallExpr) (blocks, locks *Reason) {
	op, h := lockstate.Classify(info, s.table, call)
	switch op {
	case lockstate.OpAcquire:
		if !h.Class.Spin && isBlockingAcquire(call) {
			return nil, &Reason{call.Pos(), fmt.Sprintf("acquires blocking lock %s", Short(h.Class.Key))}
		}
		return nil, nil
	case lockstate.OpRelease, lockstate.OpReadLock, lockstate.OpReadUnlock:
		return nil, nil
	}
	fn := lockstate.CalleeFunc(info, call)
	if b, l := externalEffect(fn, call); b != nil || l != nil {
		return b, l
	}
	key := lockstate.FuncKey(fn)
	if f := s.funcs[key]; f != nil {
		if f.Blocks != nil {
			blocks = &Reason{call.Pos(), "calls " + Short(key) + ", which may block (" + f.Blocks.What + ")"}
		}
		if f.LocksMutex != nil {
			locks = &Reason{call.Pos(), "calls " + Short(key) + ", which " + f.LocksMutex.What}
		}
		return blocks, locks
	}
	return s.externalFallback(key, call.Pos()), nil
}

// CallRetires reports which argument indices of call are retired by the
// callee (receiver = index 0 for method calls): retirecheck's per-call
// entry point. The FreeDeferred method name is itself the base
// contract, with or without an analyzed body.
func (s *Set) CallRetires(info *types.Info, call *ast.CallExpr) map[int]*Reason {
	fn := lockstate.CalleeFunc(info, call)
	key := lockstate.FuncKey(fn)
	if f := s.funcs[key]; f != nil && len(f.Retires) > 0 {
		return f.Retires
	}
	if fn != nil && fn.Name() == "FreeDeferred" {
		out := make(map[int]*Reason)
		sig := fn.Type().(*types.Signature)
		base := 0
		if sig.Recv() != nil {
			base = 1
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if isScalar(sig.Params().At(i).Type()) {
				continue
			}
			out[base+i] = &Reason{call.Pos(), "passed to FreeDeferred"}
		}
		return out
	}
	return nil
}

// isBlockingAcquire reports whether the lock call's method blocks
// (Lock/LockRemote/RLock — TryLock never does).
func isBlockingAcquire(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name != "TryLock"
}

func isScalar(t types.Type) bool {
	if t == nil {
		return true
	}
	_, basic := t.Underlying().(*types.Basic)
	return basic
}

// Compute builds the summary set for the given packages and propagates
// effects to fixpoint over call-graph SCCs.
func Compute(fset *token.FileSet, pkgs []Pkg, table *annot.Table) *Set {
	s := &Set{funcs: make(map[string]*FuncEffect), table: table}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				key := lockstate.FuncKey(obj)
				if key == "" {
					continue
				}
				fe := &FuncEffect{
					Key:           key,
					Pos:           fd.Pos(),
					HasBody:       fd.Body != nil,
					MayBlockAnnot: annot.FuncHas(fd, annot.VerbMayBlock, ""),
				}
				computeDirect(fe, fd, pkg.Info, table)
				s.funcs[key] = fe
			}
		}
	}
	s.fixpoint()
	return s
}

// paramIndexes maps each parameter (and receiver) object of fd to its
// summary argument index.
func paramIndexes(fd *ast.FuncDecl, info *types.Info) map[types.Object]int {
	out := make(map[types.Object]int)
	idx := 0
	addField := func(fl *ast.Field) {
		if len(fl.Names) == 0 {
			idx++
			return
		}
		for _, n := range fl.Names {
			if obj := info.Defs[n]; obj != nil {
				out[obj] = idx
			}
			idx++
		}
	}
	if fd.Recv != nil {
		for _, fl := range fd.Recv.List {
			addField(fl)
		}
	}
	if fd.Type.Params != nil {
		for _, fl := range fd.Type.Params.List {
			addField(fl)
		}
	}
	return out
}

// computeDirect fills fe.d with fd's own effects and call sites.
func computeDirect(fe *FuncEffect, fd *ast.FuncDecl, info *types.Info, table *annot.Table) {
	d := &fe.d
	d.acquires = make(map[string]token.Pos)
	d.acquiresIndexed = make(map[string]bool)
	d.netHeld = make(map[string]int)
	d.retires = make(map[int]*Reason)
	if fd.Body == nil {
		return
	}
	params := paramIndexes(fd, info)

	// The FreeDeferred method name is the retire contract: a method so
	// named retires every non-scalar parameter it receives.
	if fd.Name.Name == "FreeDeferred" {
		for obj, idx := range params {
			if fd.Recv != nil && idx == 0 {
				continue
			}
			if !isScalar(obj.Type()) {
				d.retires[idx] = &Reason{fd.Pos(), "retired by " + Short(fe.Key) + " itself"}
			}
		}
	}

	// stmtCalls are calls whose net lock/read effects flow into the
	// caller: expression statements and single-assign right-hand sides.
	stmtCalls := make(map[*ast.CallExpr]bool)
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if c, ok := x.X.(*ast.CallExpr); ok {
				stmtCalls[c] = true
			}
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 {
				if c, ok := x.Rhs[0].(*ast.CallExpr); ok {
					stmtCalls[c] = true
				}
			}
		case *ast.DeferStmt:
			deferred[x.Call] = true
		}
		return true
	})

	setBlocks := func(r *Reason) {
		if d.blocks == nil {
			d.blocks = r
		}
	}
	setLocks := func(r *Reason) {
		if d.locksMutex == nil {
			d.locksMutex = r
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal invoked in place runs inline: include its body.
			// Every other literal (goroutine bodies, callbacks handed to
			// ScheduleIdle/Retire, stored closures) runs elsewhere —
			// excluding them is a documented soundness gap.
			return false
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, walk)
				for _, a := range x.Args {
					ast.Inspect(a, walk)
				}
				return false
			}
			visitCall(fe, x, info, table, params, stmtCalls[x], deferred[x], setBlocks, setLocks)
			return true
		case *ast.GoStmt:
			// Concurrent: argument expressions evaluate here, the body
			// does not.
			for _, a := range x.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.SendStmt:
			setBlocks(&Reason{x.Pos(), "sends on a channel"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				setBlocks(&Reason{x.Pos(), "receives from a channel"})
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				setBlocks(&Reason{x.Pos(), "selects without a default case"})
			}
			// Comm clauses' sends/receives are covered by the select's
			// own blocking semantics: visit bodies only.
			for _, c := range x.Body.List {
				cc := c.(*ast.CommClause)
				for _, st := range cc.Body {
					ast.Inspect(st, walk)
				}
			}
			return false
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					setBlocks(&Reason{x.Pos(), "ranges over a channel"})
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// visitCall records one call's direct effects into fe.d.
func visitCall(fe *FuncEffect, call *ast.CallExpr, info *types.Info, table *annot.Table,
	params map[types.Object]int, stmtLevel, isDeferred bool, setBlocks, setLocks func(*Reason)) {
	d := &fe.d
	op, h := lockstate.Classify(info, table, call)
	switch op {
	case lockstate.OpAcquire:
		if isDeferred {
			return // a deferred acquire is not an idiom this repo uses
		}
		d.acquires[h.Class.Key] = call.Pos()
		if h.HasIndex {
			d.acquiresIndexed[h.Class.Key] = true
		}
		if !h.Class.Spin && isBlockingAcquire(call) {
			setLocks(&Reason{call.Pos(), "acquires blocking lock " + Short(h.Class.Key)})
		}
		if stmtLevel {
			d.netHeld[h.Class.Key]++
		}
		return
	case lockstate.OpRelease:
		if stmtLevel || isDeferred {
			sel := call.Fun.(*ast.SelectorExpr)
			if class := lockstate.LockClassOf(info, table, sel.X); class != nil {
				d.netHeld[class.Key]--
			}
		}
		return
	case lockstate.OpReadLock:
		if stmtLevel && !isDeferred {
			d.netRead++
		}
		return
	case lockstate.OpReadUnlock:
		if stmtLevel || isDeferred {
			d.netRead--
		}
		return
	}

	fn := lockstate.CalleeFunc(info, call)
	if b, l := externalEffect(fn, call); b != nil || l != nil {
		if b != nil {
			setBlocks(b)
		}
		if l != nil {
			setLocks(l)
		}
		return
	}
	key := lockstate.FuncKey(fn)
	if key == "" {
		return
	}

	// Map argument expressions to caller parameters for retire
	// propagation. Index 0 is the receiver for method calls.
	var argExprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			argExprs = append(argExprs, sel.X)
		}
	}
	argExprs = append(argExprs, call.Args...)
	argParams := make([]int, len(argExprs))
	for i, a := range argExprs {
		argParams[i] = -1
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if idx, isParam := params[obj]; isParam {
					argParams[i] = idx
				}
			}
		}
	}
	d.calls = append(d.calls, callsite{key: key, pos: call.Pos(), stmt: stmtLevel && !isDeferred, argParams: argParams})

	// The FreeDeferred name contract applies at call sites too, so the
	// seed works even when the callee's body is export-data only.
	if fn != nil && fn.Name() == "FreeDeferred" {
		for i, a := range argExprs {
			if i == 0 && len(argExprs) > len(call.Args) {
				continue // receiver
			}
			if tv, ok := info.Types[a]; ok && tv.Type != nil && isScalar(tv.Type) {
				continue
			}
			if argParams[i] >= 0 {
				if _, dup := d.retires[argParams[i]]; !dup {
					d.retires[argParams[i]] = &Reason{call.Pos(), "passed to " + Short(key)}
				}
			}
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ---- fixpoint ----

// recompute rebuilds f's public effects from its direct effects plus
// the current state of its callees; it reports whether anything
// changed.
func (s *Set) recompute(f *FuncEffect) bool {
	blocks := f.d.blocks
	locks := f.d.locksMutex
	acquires := make(map[string]token.Pos, len(f.d.acquires))
	for k, v := range f.d.acquires {
		acquires[k] = v
	}
	acquiresIndexed := make(map[string]bool, len(f.d.acquiresIndexed))
	for k, v := range f.d.acquiresIndexed {
		acquiresIndexed[k] = v
	}
	netHeld := make(map[string]int, len(f.d.netHeld))
	for k, v := range f.d.netHeld {
		netHeld[k] = v
	}
	netRead := f.d.netRead
	retires := make(map[int]*Reason, len(f.d.retires))
	for k, v := range f.d.retires {
		retires[k] = v
	}

	for _, c := range f.d.calls {
		e := s.funcs[c.key]
		if e == nil {
			if blocks == nil {
				blocks = s.externalFallback(c.key, c.pos)
			}
			continue
		}
		if blocks == nil && e.Blocks != nil {
			blocks = &Reason{c.pos, "calls " + Short(c.key) + ", which may block"}
		}
		if locks == nil && e.LocksMutex != nil {
			locks = &Reason{c.pos, "calls " + Short(c.key) + ", which may acquire a blocking lock"}
		}
		for k := range e.Acquires {
			if _, ok := acquires[k]; !ok {
				acquires[k] = c.pos
			}
			if e.AcquiresIndexed[k] {
				acquiresIndexed[k] = true
			}
		}
		if c.stmt {
			for k, n := range e.netHeld {
				netHeld[k] += n
			}
			netRead += e.NetRead
		}
		for i, r := range e.Retires {
			if i < len(c.argParams) && c.argParams[i] >= 0 && r != nil {
				p := c.argParams[i]
				if _, dup := retires[p]; !dup {
					retires[p] = &Reason{c.pos, "passed to " + Short(c.key) + ", which retires it"}
				}
			}
		}
	}
	changed := (blocks == nil) != (f.Blocks == nil) ||
		(locks == nil) != (f.LocksMutex == nil) ||
		len(acquires) != len(f.Acquires) ||
		len(acquiresIndexed) != len(f.AcquiresIndexed) ||
		len(retires) != len(f.Retires) ||
		netRead != f.NetRead ||
		!sameCounts(netHeld, f.netHeld)
	f.Blocks = blocks
	f.LocksMutex = locks
	f.Acquires = acquires
	f.AcquiresIndexed = acquiresIndexed
	f.NetRead = netRead
	f.netHeld = netHeld
	f.Retires = retires
	return changed
}

func sameCounts(a, b map[string]int) bool {
	if b == nil {
		return len(a) == 0
	}
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// fixpoint propagates effects callee-to-caller over SCCs in reverse
// topological order, iterating recursive components until stable.
func (s *Set) fixpoint() {
	sccs := s.sccOrder()
	for _, scc := range sccs {
		for iter := 0; ; iter++ {
			changed := false
			for _, key := range scc {
				if s.recompute(s.funcs[key]) {
					changed = true
				}
			}
			if !changed || len(scc) == 1 || iter > len(scc)+8 {
				break
			}
		}
	}
}

// sccOrder returns the call graph's strongly connected components in
// reverse topological order (callees before callers), Tarjan's
// algorithm.
func (s *Set) sccOrder() [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	keys := s.Keys() // deterministic traversal

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, c := range s.funcs[v].d.calls {
			w := c.key
			if s.funcs[w] == nil {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
	return sccs
}

// Render formats the summaries of every function whose key has the
// given prefix, one line per function, for golden tests. Positions are
// omitted so goldens survive unrelated edits... of other packages;
// reason strings name their sources.
func (s *Set) Render(keyPrefix string) string {
	var b strings.Builder
	for _, k := range s.Keys() {
		if !strings.HasPrefix(k, keyPrefix) {
			continue
		}
		f := s.funcs[k]
		var parts []string
		if f.Blocks != nil {
			parts = append(parts, "blocks{"+f.Blocks.What+"}")
		}
		if f.LocksMutex != nil {
			parts = append(parts, "locks{"+f.LocksMutex.What+"}")
		}
		if len(f.Acquires) > 0 {
			keys := make([]string, 0, len(f.Acquires))
			for c := range f.Acquires {
				keys = append(keys, Short(c))
			}
			sort.Strings(keys)
			parts = append(parts, "acquires{"+strings.Join(keys, ",")+"}")
		}
		if held := f.NetHeld(); len(held) > 0 {
			short := make([]string, len(held))
			for i, h := range held {
				short[i] = Short(h)
			}
			parts = append(parts, "net-held{"+strings.Join(short, ",")+"}")
		}
		if rel := f.NetReleased(); len(rel) > 0 {
			short := make([]string, len(rel))
			for i, h := range rel {
				short[i] = Short(h)
			}
			parts = append(parts, "net-released{"+strings.Join(short, ",")+"}")
		}
		if f.NetRead != 0 {
			parts = append(parts, fmt.Sprintf("net-read{%+d}", f.NetRead))
		}
		if len(f.Retires) > 0 {
			var idx []int
			for i := range f.Retires {
				idx = append(idx, i)
			}
			sort.Ints(idx)
			ss := make([]string, len(idx))
			for i, v := range idx {
				ss[i] = fmt.Sprint(v)
			}
			parts = append(parts, "retires{"+strings.Join(ss, ",")+"}")
		}
		if f.MayBlockAnnot {
			parts = append(parts, "may_block-annot")
		}
		if len(parts) == 0 {
			parts = append(parts, "pure")
		}
		fmt.Fprintf(&b, "%s: %s\n", Short(k), strings.Join(parts, " "))
	}
	return b.String()
}
