// Package lint is pdos-lint: a stdlib-only static-analysis suite (go/ast +
// go/parser + go/types, no golang.org/x/tools dependency) that machine-checks
// the conventions the simulator's correctness and performance arguments rest
// on. PRs 1-3 made the reproduction fast *by convention* — byte-identical
// figure CSVs at any worker count, 0 allocs/packet through PacketPool
// ownership, deterministic seeded RNG — and PRs 6-8 added invariants that are
// only proven dynamically (fused-event back-stamping, paced-grid counter
// folds, shard isolation). One stray map iteration, time.Now, leaked pool
// packet, raw float-on-stamp, or pointer across a shard boundary silently
// breaks those contracts. The analyzers turn the conventions into build
// failures:
//
//   - annotations: every //pdos: directive must use a known word — a typo
//     like //pdos:hotpah must not silently disable enforcement;
//   - determinism: no wall-clock reads, global math/rand, map iteration, or
//     goroutine spawns in the simulation packages (annotation escape hatches:
//     //pdos:wallclock, //pdos:nondeterministic-ok);
//   - poolowner: PacketPool.Get / Link.NewPacket results must be released or
//     ownership-transferred on every path before the function returns, and
//     never touched after Release — flow-sensitive over the per-function CFG
//     (cfg.go), so conditional leaks and cross-branch use-after-release are
//     caught;
//   - hotpath: functions annotated //pdos:hotpath may not call fmt, allocate
//     closures, box non-pointer values into interfaces, or append into
//     anything but their own reused backing slice;
//   - floateq: no ==/!= on floating-point expressions in the model/optimize
//     packages outside approved tolerance helpers (//pdos:float-eq-ok);
//   - vtime: virtual-timestamp discipline — no float/wall-duration
//     conversions into sim.Time outside sanctioned helpers, no float
//     erosion of stamps in hot paths, and back-stamp call sites
//     (Kernel.AtArgStamped) must prove at ≤ when (//pdos:vtime-ok);
//   - shardsafe: shard-local pointers (Packet, Kernel, FlowTable, …) must
//     not be captured by goroutines, sent on channels, or stored at package
//     scope — boundary crossings use packed portal payloads
//     (//pdos:shard-ok);
//   - counterpair: //pdos:counter <group> <role> conservation pairs — every
//     increment site needs a matching decrement or analytic fold site.
//
// The companion runtime layer lives behind the `pdosassert` build tag in
// internal/sim and internal/netem (see DESIGN.md §10): cheap invariants —
// pool double-release and leak accounting, kernel (when, at, seq) firing-
// order monotonicity, shard-boundary conservation — compiled out of normal
// builds entirely. DESIGN.md §15 catalogs the static invariants.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. pulsedos/internal/sim
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	ann *annotations // lazily built //pdos: directive index
}

// Config selects which packages each analyzer applies to. The zero value
// applies nothing; Default() returns the configuration for this repository.
// Tests point the path sets at fixture packages instead.
type Config struct {
	// DeterministicPkgs are import paths where the determinism analyzer
	// forbids wall-clock reads, global math/rand, map iteration, and
	// goroutine spawns.
	DeterministicPkgs []string

	// KernelPkg is the one package allowed to spawn goroutines: the
	// conservative parallel engine owns worker lifecycles there.
	KernelPkg string

	// FloatPkgs are import paths where the floateq analyzer forbids ==/!=
	// on floating-point operands.
	FloatPkgs []string

	// VTimePkgs are import paths under virtual-timestamp discipline (the
	// vtime analyzer).
	VTimePkgs []string

	// TimeTypes are the fully qualified named types ("pkgpath.Name") that
	// carry kernel virtual timestamps.
	TimeTypes []string

	// StampedCalls are fully qualified functions or methods
	// ("pkgpath.Recv.Method") whose first two arguments are (when, at) with
	// the back-stamping contract at ≤ when.
	StampedCalls []string

	// ShardSafePkgs are import paths under shard-isolation discipline (the
	// shardsafe analyzer).
	ShardSafePkgs []string

	// ShardLocalTypes are fully qualified named types whose values are owned
	// by exactly one engine worker and must not become cross-shard-visible.
	ShardLocalTypes []string
}

// Default returns the repository configuration: the simulation packages whose
// event order feeds figure output are determinism-checked, internal/sim may
// spawn engine workers, and the analytic model/optimizer packages are under
// float-equality discipline.
func Default() Config {
	return Config{
		DeterministicPkgs: []string{
			"pulsedos/internal/sim",
			"pulsedos/internal/netem",
			// tcp includes the fluid macroflow tier (macroflow.go): the
			// aggregate ODE feeds figure output exactly like packet TCP, so
			// it lives under the same determinism discipline.
			"pulsedos/internal/tcp",
			"pulsedos/internal/attack",
			"pulsedos/internal/scenario",
			"pulsedos/internal/experiments",
			"pulsedos/internal/topo",
			// trace aggregates measurements that land verbatim in cached,
			// content-addressed artifacts; a map-order float sum here breaks
			// byte-identity (the JitterMeter.Mean ulp bug).
			"pulsedos/internal/trace",
			// runcache and serve memoize those artifacts. Their scheduling
			// layers (worker pool, singleflight, HTTP) are inherently
			// concurrent and carry //pdos:nondeterministic-ok at each site;
			// everything they persist or serve must stay deterministic.
			"pulsedos/internal/runcache",
			"pulsedos/internal/serve",
			// figures compiles documents and assembles cached artifacts into
			// figure output; a map-order iteration or wall-clock read there
			// would break the legacy-vs-scenario byte-identity contract.
			"pulsedos/internal/figures",
		},
		KernelPkg: "pulsedos/internal/sim",
		FloatPkgs: []string{
			"pulsedos/internal/model",
			"pulsedos/internal/optimize",
			"pulsedos/internal/analysis",
		},
		// Every package that manufactures or schedules stamps is under
		// virtual-time discipline; the analytic model/optimizer packages work
		// in float seconds by design and stay out.
		VTimePkgs: []string{
			"pulsedos/internal/sim",
			"pulsedos/internal/netem",
			"pulsedos/internal/tcp",
			"pulsedos/internal/attack",
			"pulsedos/internal/scenario",
			"pulsedos/internal/experiments",
			"pulsedos/internal/topo",
			"pulsedos/internal/trace",
		},
		TimeTypes: []string{"pulsedos/internal/sim.Time"},
		StampedCalls: []string{
			"pulsedos/internal/sim.Kernel.AtArgStamped",
			"pulsedos/internal/sim.Kernel.AtKeyed",
		},
		// Shard isolation covers the engine itself and every package whose
		// state the engine partitions across workers.
		ShardSafePkgs: []string{
			"pulsedos/internal/sim",
			"pulsedos/internal/netem",
			"pulsedos/internal/tcp",
			"pulsedos/internal/attack",
			"pulsedos/internal/topo",
		},
		ShardLocalTypes: []string{
			"pulsedos/internal/netem.Packet",
			"pulsedos/internal/netem.PacketPool",
			"pulsedos/internal/sim.Kernel",
			"pulsedos/internal/sim.Shard",
			"pulsedos/internal/tcp.FlowTable",
		},
	}
}

// hasPath reports whether path is in set.
func hasPath(set []string, path string) bool {
	for _, p := range set {
		if p == path {
			return true
		}
	}
	return false
}

// An analyzer inspects one package and appends findings.
type analyzer struct {
	name string
	run  func(cfg Config, pkg *Package, report func(pos token.Pos, format string, args ...any))
}

// analyzers is the suite, in reporting-priority order.
var analyzers = []analyzer{
	{"annotations", runAnnotations},
	{"determinism", runDeterminism},
	{"poolowner", runPoolOwner},
	{"hotpath", runHotPath},
	{"floateq", runFloatEq},
	{"vtime", runVTime},
	{"shardsafe", runShardSafe},
	{"counterpair", runCounterPair},
}

// Run applies the full analyzer suite to pkgs under cfg and returns the
// findings sorted by position.
func Run(cfg Config, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkg.buildAnnotations()
		for _, a := range analyzers {
			name := a.name
			report := func(pos token.Pos, format string, args ...any) {
				diags = append(diags, Diagnostic{
					Analyzer: name,
					Pos:      pkg.Fset.Position(pos),
					Message:  fmt.Sprintf(format, args...),
				})
			}
			a.run(cfg, pkg, report)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ---- shared type helpers ----

// funcObj resolves the called function or method object of a call, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvTypeName reports the named type a method is declared on ("" for plain
// functions), ignoring pointerness.
func recvTypeName(f *types.Func) string {
	if f == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isFloat reports whether t has floating-point underlying type (including
// untyped float constants).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprString renders an expression compactly for diagnostics and for the
// hotpath analyzer's self-append structural comparison.
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		writeExpr(b, e.X)
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
	case *ast.IndexExpr:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.Index)
		b.WriteByte(']')
	case *ast.ParenExpr:
		writeExpr(b, e.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, e.X)
	case *ast.UnaryExpr:
		b.WriteString(e.Op.String())
		writeExpr(b, e.X)
	case *ast.BasicLit:
		b.WriteString(e.Value)
	case *ast.CallExpr:
		writeExpr(b, e.Fun)
		b.WriteString("(…)")
	default:
		fmt.Fprintf(b, "%T", e)
	}
}
