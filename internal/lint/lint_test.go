package lint

import (
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureConfig scopes the path-selected analyzers to the fixture packages
// the same way Default() scopes them to the repository.
func fixtureConfig() Config {
	return Config{
		DeterministicPkgs: []string{"fixture/determinism"},
		KernelPkg:         "fixture/kernel",
		FloatPkgs:         []string{"fixture/floateq"},
		VTimePkgs:         []string{"fixture/vtime"},
		TimeTypes:         []string{"fixture/vtime.Time"},
		StampedCalls:      []string{"fixture/vtime.Kernel.AtArgStamped"},
		ShardSafePkgs:     []string{"fixture/shardsafe"},
		ShardLocalTypes:   []string{"fixture/shardsafe.Packet", "fixture/shardsafe.Kernel"},
	}
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %q: %v", name, err)
	}
	return pkg
}

// wantRE matches the expected-diagnostic markers in fixture sources: a
// trailing comment of the form `// want "regexp"`, either as the whole
// comment or at the end of a //pdos: directive comment (whose own position
// is where directive-driven analyzers report).
var wantRE = regexp.MustCompile(`(?:^|\s)// want "(.+)"$`)

type wantKey struct {
	file string
	line int
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

// collectWants indexes every `// want "..."` marker by file and line.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]*want {
	t.Helper()
	wants := make(map[wantKey][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{filepath.Base(pos.Filename), pos.Line}
				wants[k] = append(wants[k], &want{rx: rx})
			}
		}
	}
	return wants
}

// checkFixture runs the full suite over one fixture package and requires an
// exact two-way match between diagnostics and want markers: every diagnostic
// must land on a line whose want pattern matches it, and every want must be
// hit. Removing an analyzer therefore fails its fixture test (unmatched
// wants), and a false positive fails it too (unexpected diagnostic).
func checkFixture(t *testing.T, analyzerName, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %q has no want markers — it tests nothing", fixture)
	}

	diags := Run(fixtureConfig(), []*Package{pkg})
	for _, d := range diags {
		if d.Analyzer != analyzerName {
			t.Errorf("diagnostic from unexpected analyzer %q in %s fixture: %s", d.Analyzer, fixture, d)
			continue
		}
		k := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		hit := false
		for _, w := range wants[k] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic (no want marker on %s:%d): %s", k.file, k.line, d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic: %s:%d expected a finding matching %q, got none", k.file, k.line, w.rx)
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) { checkFixture(t, "determinism", "determinism") }
func TestPoolOwnerFixture(t *testing.T)   { checkFixture(t, "poolowner", "poolowner") }
func TestHotPathFixture(t *testing.T)     { checkFixture(t, "hotpath", "hotpath") }
func TestFloatEqFixture(t *testing.T)     { checkFixture(t, "floateq", "floateq") }
func TestVTimeFixture(t *testing.T)       { checkFixture(t, "vtime", "vtime") }
func TestShardSafeFixture(t *testing.T)   { checkFixture(t, "shardsafe", "shardsafe") }
func TestCounterPairFixture(t *testing.T) { checkFixture(t, "counterpair", "counterpair") }
func TestAnnotationsFixture(t *testing.T) { checkFixture(t, "annotations", "annotations") }

// TestFixturesOutsideScopeAreQuiet pins the config scoping: the determinism,
// floateq, vtime, and shardsafe fixtures are riddled with violations, but
// with an empty Config (no package in any analyzer's scope) only the
// annotation-driven and universal analyzers run — and those fixtures contain
// no pool/hotpath/counter constructs or unknown directives, so the suite
// must stay silent.
func TestFixturesOutsideScopeAreQuiet(t *testing.T) {
	for _, name := range []string{"determinism", "floateq", "vtime", "shardsafe"} {
		pkg := loadFixture(t, name)
		if diags := Run(Config{}, []*Package{pkg}); len(diags) != 0 {
			t.Errorf("fixture %q under empty config: got %d diagnostics, want 0; first: %s",
				name, len(diags), diags[0])
		}
	}
}

// repoTree loads and type-checks the whole module once for the tests that
// inspect the repository itself.
var repoTree = sync.OnceValues(func() ([]*Package, error) {
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return l.LoadAll()
})

func loadRepoTree(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := repoTree()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	return pkgs
}

// TestRepoTreeClean is the acceptance gate in test form: the analyzer suite
// under the repository Default() config must report zero findings on the
// tree itself (make lint enforces the same from the command line).
func TestRepoTreeClean(t *testing.T) {
	diags := Run(Default(), loadRepoTree(t))
	for _, d := range diags {
		t.Errorf("tree not lint-clean: %s", d)
	}
}

// TestDefaultConfigResolves: every entry of the repository configuration
// names code in the tree. An entry that resolves to nothing — a deleted
// package, a renamed type — leaves its analyzer silently checking nothing.
func TestDefaultConfigResolves(t *testing.T) {
	byPath := map[string]*Package{}
	for _, p := range loadRepoTree(t) {
		byPath[p.Path] = p
	}
	cfg := Default()
	for _, set := range [][]string{cfg.DeterministicPkgs, cfg.FloatPkgs, cfg.VTimePkgs, cfg.ShardSafePkgs, {cfg.KernelPkg}} {
		for _, path := range set {
			if byPath[path] == nil {
				t.Errorf("package %q is not in the tree", path)
			}
		}
	}
	for _, name := range append(append([]string(nil), cfg.TimeTypes...), cfg.ShardLocalTypes...) {
		if _, ok := resolveName(byPath, name).(*types.TypeName); !ok {
			t.Errorf("type %q is not in the tree", name)
		}
	}
	for _, name := range cfg.StampedCalls {
		if _, ok := resolveName(byPath, name).(*types.Func); !ok {
			t.Errorf("function %q is not in the tree", name)
		}
	}
}

// resolveName finds the object a configured "pkgpath.Name" or
// "pkgpath.Recv.Method" names in the loaded packages, or nil.
func resolveName(byPath map[string]*Package, qualified string) types.Object {
	slash := strings.LastIndex(qualified, "/") + 1
	dot := strings.Index(qualified[slash:], ".")
	if dot < 0 {
		return nil
	}
	pkg := byPath[qualified[:slash+dot]]
	if pkg == nil {
		return nil
	}
	name, method, isMethod := strings.Cut(qualified[slash+dot+1:], ".")
	obj := pkg.Pkg.Scope().Lookup(name)
	if !isMethod {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Pkg, method)
	return m
}
