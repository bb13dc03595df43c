package hydra_test

// The docs catalogs are part of the interface: docs/TRACKERS.md must
// describe every tracker scheme and docs/METRICS.md every metric name,
// because downstream dashboards key on those names. These tests keep
// both catalogs in sync with the code, and keep the docs from naming
// packages, files or tracker types the code no longer has.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// trackerGuardRe matches the compile-time interface guard every
// tracker in internal/track declares.
var trackerGuardRe = regexp.MustCompile(`var _ rh\.Tracker = \(\*([A-Z]\w*)\)\(nil\)`)

// TestTrackerCatalog fails when an exported rh.Tracker implementation
// in internal/track (found by its interface guard) is not mentioned in
// docs/TRACKERS.md: adding a scheme means cataloguing it there.
func TestTrackerCatalog(t *testing.T) {
	doc, err := os.ReadFile("docs/TRACKERS.md")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("internal/track/*.go")
	if err != nil {
		t.Fatal(err)
	}
	byType := map[string]string{} // tracker type -> declaring file
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range trackerGuardRe.FindAllStringSubmatch(string(src), -1) {
			byType[m[1]] = f
		}
	}
	if len(byType) == 0 {
		t.Fatal("no rh.Tracker guards found under internal/track (pattern drift?)")
	}
	var missing []string
	for name, file := range byType {
		if !strings.Contains(string(doc), name) {
			missing = append(missing, name+" (declared in "+file+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("tracker %s is not mentioned in docs/TRACKERS.md", m)
	}
}

var (
	// metricRegisterRe matches the literal metric-registration call
	// shapes the codebase uses:
	//
	//	reg.Count("memsim.reads", …)    reg.Gauge("sim.ipc", …)
	//	reg.Histogram("memsim.readq_depth", …)    counter("cache.hits", …)
	//
	// A registration with a computed name is invisible here; keep
	// names literal.
	metricRegisterRe = regexp.MustCompile(`(?:\.(?:Count|Gauge|Histogram)|\bcounter)\(\s*"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"`)
	// metricDocRe matches a backticked dotted metric name in the first
	// column of a markdown table row.
	metricDocRe = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)+)`\\s*\\|")
)

// TestMetricCatalog checks both directions between the metric names
// registered in non-test Go sources anywhere in the tree and the
// dotted names in the first column of docs/METRICS.md tables: a name
// registered but undocumented fails, and so does a documented name no
// longer registered anywhere (names are append-only, so a doc row is
// retired only together with its code).
func TestMetricCatalog(t *testing.T) {
	registered := map[string]string{} // name -> first registering file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden trees (VCS, build caches) and fixtures hold no
			// registrations; everything else is scanned.
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRegisterRe.FindAllStringSubmatch(string(src), -1) {
			if _, ok := registered[m[1]]; !ok {
				registered[m[1]] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) == 0 {
		t.Fatal("no metric registrations found (pattern drift?)")
	}

	doc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := metricDocRe.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no metric names found in docs/METRICS.md (pattern drift?)")
	}

	var missing, stale []string
	for name, file := range registered {
		if !documented[name] {
			missing = append(missing, name+" (registered in "+file+")")
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("metric %s is not documented in docs/METRICS.md", m)
	}
	for _, s := range stale {
		t.Errorf("docs/METRICS.md documents %s, which is no longer registered anywhere", s)
	}
}

// docPathRe matches a backticked repository path under internal/, as in
// `internal/track`, `internal/memsim/queue.go` or `internal/core.Tracker`.
var docPathRe = regexp.MustCompile("`internal/([a-z0-9_]+)((?:/[A-Za-z0-9_]+)*(?:\\.go)?)")

// TestDocsPackagePathsExist fails when README.md, DESIGN.md or a
// docs/*.md file names an `internal/<pkg>` package that is not a
// directory, or an `internal/<pkg>/<file>.go` that does not exist: the
// prose of a deleted unit must go with it.
func TestDocsPackagePathsExist(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "DESIGN.md")
	seen := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPathRe.FindAllStringSubmatch(string(src), -1) {
			seen++
			dir := filepath.Join("internal", m[1])
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s names `%s`, which is not a directory", doc, filepath.ToSlash(dir))
				continue
			}
			if strings.HasSuffix(m[2], ".go") {
				if _, err := os.Stat(dir + m[2]); err != nil {
					t.Errorf("%s names `%s`, which does not exist", doc, filepath.ToSlash(dir+m[2]))
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no `internal/...` paths found in the docs (pattern drift?)")
	}
}

// docTrackNameRe matches a backticked track.<Name> reference.
var docTrackNameRe = regexp.MustCompile("`track\\.([A-Za-z_][A-Za-z0-9_]*)")

// TestTrackerCatalogNamesExist is TestTrackerCatalog's other direction:
// every `track.<Name>` in docs/TRACKERS.md must be a type or function
// declared in internal/track, so a deleted tracker cannot keep its
// catalog entry.
func TestTrackerCatalogNamesExist(t *testing.T) {
	doc, err := os.ReadFile("docs/TRACKERS.md")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/track", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declared[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							declared[ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	names := docTrackNameRe.FindAllStringSubmatch(string(doc), -1)
	if len(names) == 0 {
		t.Fatal("no `track.<Name>` references in docs/TRACKERS.md (pattern drift?)")
	}
	for _, m := range names {
		if !declared[m[1]] {
			t.Errorf("docs/TRACKERS.md names `track.%s`, which internal/track does not declare", m[1])
		}
	}
}
