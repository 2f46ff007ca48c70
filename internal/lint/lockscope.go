package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"preexec/internal/lint/analysis"
)

// LockScope enforces the single-flight discipline of internal/memo that the
// serve stress tests hunt dynamically: while a sync.Mutex or sync.RWMutex
// acquired in the current function is held, the function must not block —
// no channel operations, no select, no time.Sleep, no WaitGroup.Wait, no
// memo.Map.Do-style calls, and no invocation of a function-typed value
// (callbacks can block arbitrarily or re-enter the lock). The analyzer walks
// each function linearly, tracking the held-lock set per lexical path:
// branches are explored with independent copies, so the unlock-then-block
// pattern in memo.Map.Do is recognized as safe. sync.Cond.Wait is exempt
// (it releases the lock by contract).
var LockScope = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "flags channel operations, blocking calls, and function-value calls " +
		"made while a mutex acquired in the same function is still held",
	Run: runLockScope,
}

func runLockScope(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		walkFuncs(f, func(_ *ast.FuncType, body *ast.BlockStmt) {
			scanLockScope(pass, body.List, map[string]bool{})
		})
	}
	return nil, nil
}

// lockKey renders the receiver expression of a (Lock|Unlock) call into a
// stable per-function key: "s.mu", "regMu", ...
func lockKey(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return lockKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return lockKey(e.X) + "[...]"
	case *ast.StarExpr:
		return lockKey(e.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// mutexOp decodes a statement-level expr as a mutex Lock/Unlock call,
// returning the lock key and whether it acquires (true) or releases.
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	t := info.Types[sel.X].Type
	if t == nil || (!namedFrom(t, "sync", "Mutex") && !namedFrom(t, "sync", "RWMutex")) {
		return "", false, false
	}
	return lockKey(sel.X), acquire, true
}

// scanLockScope interprets a statement list with the given held-lock set.
// Nested blocks recurse on a copy so sibling branches don't contaminate each
// other; defers of Unlock keep the lock "held" for the rest of the function,
// which is exactly the property being checked.
func scanLockScope(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	info := pass.TypesInfo
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, acquire, ok := mutexOp(info, call); ok {
					if acquire {
						held[key] = true
					} else {
						delete(held, key)
					}
					continue
				}
			}
		case *ast.DeferStmt:
			// `defer mu.Unlock()` pins the lock for the remainder of the
			// function; `defer mu.Lock()` would be nonsense, ignore it.
			if key, acquire, ok := mutexOp(info, s.Call); ok && !acquire {
				held[key] = true
				continue
			}
		}
		if len(held) > 0 {
			checkStmtShallow(pass, stmt, held)
		}
		recurseBlocks(pass, stmt, held)
	}
}

// recurseBlocks descends into the nested statement lists of stmt, each with
// its own copy of the held set.
func recurseBlocks(pass *analysis.Pass, stmt ast.Stmt, held map[string]bool) {
	clone := func() map[string]bool {
		c := make(map[string]bool, len(held))
		for k := range held {
			c[k] = true
		}
		return c
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		scanLockScope(pass, s.List, clone())
	case *ast.IfStmt:
		scanLockScope(pass, s.Body.List, clone())
		if s.Else != nil {
			recurseBlocks(pass, s.Else, held)
		}
	case *ast.ForStmt:
		scanLockScope(pass, s.Body.List, clone())
	case *ast.RangeStmt:
		scanLockScope(pass, s.Body.List, clone())
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanLockScope(pass, cc.Body, clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanLockScope(pass, cc.Body, clone())
			}
		}
	case *ast.LabeledStmt:
		recurseBlocks(pass, s.Stmt, held)
	}
}

// checkStmtShallow reports blocking constructs in stmt's own expressions,
// without descending into nested statement blocks (those get their own scan)
// or function literals (they run in another dynamic context).
func checkStmtShallow(pass *analysis.Pass, stmt ast.Stmt, held map[string]bool) {
	info := pass.TypesInfo
	locks := heldList(held)

	// Nested blocks are scanned by recurseBlocks; here examine only the
	// statement's immediate expressions (conditions, init clauses, calls).
	var exprs []ast.Node
	switch s := stmt.(type) {
	case *ast.BlockStmt, *ast.CaseClause:
		return
	case *ast.GoStmt:
		// Launching a goroutine never blocks; its body runs under its own
		// dynamic context and is scanned as a separate function literal.
		return
	case *ast.SelectStmt:
		pass.Reportf(s.Pos(), "select while %s is held blocks all other holders; release the lock first (see memo.Map.Do)", locks)
		return
	case *ast.SendStmt:
		pass.Reportf(s.Pos(), "channel send while %s is held; release the lock before communicating", locks)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			exprs = append(exprs, s.Init)
		}
		exprs = append(exprs, s.Cond)
	case *ast.ForStmt:
		if s.Init != nil {
			exprs = append(exprs, s.Init)
		}
		if s.Cond != nil {
			exprs = append(exprs, s.Cond)
		}
		if s.Post != nil {
			exprs = append(exprs, s.Post)
		}
	case *ast.RangeStmt:
		exprs = append(exprs, s.X)
	case *ast.SwitchStmt:
		if s.Init != nil {
			exprs = append(exprs, s.Init)
		}
		if s.Tag != nil {
			exprs = append(exprs, s.Tag)
		}
	case *ast.TypeSwitchStmt:
		exprs = append(exprs, s.Assign)
	default:
		exprs = append(exprs, stmt)
	}

	for _, root := range exprs {
		inspectShallow(root, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.UnaryExpr:
				if e.Op.String() == "<-" {
					pass.Reportf(e.Pos(), "channel receive while %s is held; release the lock before communicating", locks)
				}
			case *ast.SendStmt:
				pass.Reportf(e.Pos(), "channel send while %s is held; release the lock before communicating", locks)
			case *ast.CallExpr:
				checkBlockingCall(pass, info, e, locks)
			}
			return true
		})
	}
}

// checkBlockingCall flags calls that can block while a lock is held.
func checkBlockingCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, locks string) {
	if f := funcObj(info, call); f != nil {
		sig := f.Type().(*types.Signature)
		if f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep while %s is held stalls every other holder", locks)
			return
		}
		if sig.Recv() != nil {
			recvT := sig.Recv().Type()
			switch f.Name() {
			case "Wait":
				// sync.Cond.Wait releases the lock by contract; WaitGroup
				// (and anything else named Wait) does not.
				if namedFrom(recvT, "sync", "Cond") {
					return
				}
				pass.Reportf(call.Pos(), "%s.Wait while %s is held can block indefinitely; release the lock first", typeShort(recvT), locks)
			case "Do", "Acquire":
				// Single-flight / semaphore style entry points; blocking by
				// design when the work or slot isn't ready.
				if takesContext(sig) || f.Name() == "Acquire" {
					pass.Reportf(call.Pos(), "%s.%s while %s is held serializes the whole flight behind this lock; call it after unlocking", typeShort(recvT), f.Name(), locks)
				}
			}
		}
		return
	}
	// Not a declared func: a call through a function-typed value (param,
	// field, local) — an arbitrary callback that may block or re-enter.
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
		pass.Reportf(call.Pos(), "calling function value %s while %s is held; a slow or re-entrant callback deadlocks other holders", exprText(fun), locks)
	}
}

func takesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if namedFrom(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

func typeShort(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	default:
		return "<expr>"
	}
}

func heldList(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	if len(keys) > 1 {
		// Deterministic message text regardless of map order.
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	}
	return strings.Join(keys, ", ")
}
