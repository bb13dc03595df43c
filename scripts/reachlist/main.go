// Command reachlist prints each function declared in the listed Go files
// that no binary links and no -allow entry covers, then each stale -allow
// entry (one covering nothing unlinked), and exits 1 if it printed any.
// -pkgs names a file of `go list` lines, an import path followed by its
// non-test Go files; the binaries' symbol names arrive on stdin.
// scripts/reach.sh produces both and describes the method. Names drop
// receiver pointers and type parameters, as in
// repro/internal/track.Graphene.Activate; an -allow line is one name or
// a package or type prefix ending in ".*", and "#" starts a comment.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"regexp"
	"strings"
)

func main() {
	pkgsPath := flag.String("pkgs", "", "file of `go list` lines: import path, then Go files")
	allowPath := flag.String("allow", "", "allowlist file")
	flag.Parse()
	pkgs, err := os.ReadFile(*pkgsPath)
	fail(err)
	decls, err := listDecls(string(pkgs))
	fail(err)
	syms, err := io.ReadAll(os.Stdin)
	fail(err)
	allowData, err := os.ReadFile(*allowPath)
	fail(err)
	var allow []string
	for _, line := range strings.Split(string(allowData), "\n") {
		if line, _, _ = strings.Cut(line, "#"); strings.TrimSpace(line) != "" {
			allow = append(allow, strings.TrimSpace(line))
		}
	}
	unreached, stale := check(decls, readSymbols(string(syms)), allow)
	for _, d := range unreached {
		fmt.Println("unreached:", d)
	}
	for _, a := range stale {
		fmt.Println("stale allowlist entry:", a)
	}
	if len(unreached)+len(stale) > 0 {
		os.Exit(1)
	}
}

// fail exits 2 when an input cannot be read or parsed.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachlist:", err)
		os.Exit(2)
	}
}

// check returns the declarations that no linked symbol and no allowlist
// entry covers, and the allowlist entries that cover no such declaration.
func check(decls []string, linked map[string]bool, allow []string) (unreached, stale []string) {
	used := make(map[string]bool)
	for _, d := range decls {
		if linked[d] {
			continue
		}
		covered := false
		for _, a := range allow {
			if a == d || (strings.HasSuffix(a, ".*") && strings.HasPrefix(d, strings.TrimSuffix(a, "*"))) {
				covered, used[a] = true, true
			}
		}
		if !covered {
			unreached = append(unreached, d)
		}
	}
	for _, a := range allow {
		if !used[a] {
			stale = append(stale, a)
		}
	}
	return unreached, stale
}

// listDecls parses the files of each `go list` line and returns the
// names of the functions and methods they declare.
func listDecls(pkgs string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(pkgs, "\n") {
		fields := strings.Fields(line)
		for i := 1; i < len(fields); i++ {
			f, err := parser.ParseFile(fset, fields[i], nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					name = strings.TrimPrefix(normalize(types.ExprString(fn.Recv.List[0].Type)), "*") + "." + name
				}
				out = append(out, fields[0]+"."+name)
			}
		}
	}
	return out, nil
}

// readSymbols reads one linker symbol per line and returns every dotted
// prefix of each: a closure (F.func1) proves F linked and a method (T.M)
// proves T.M.
func readSymbols(syms string) map[string]bool {
	linked := make(map[string]bool)
	for _, line := range strings.Split(syms, "\n") {
		sym := normalize(strings.TrimSpace(line))
		for i := range sym {
			if sym[i] == '.' {
				linked[sym[:i]] = true
			}
		}
		linked[sym] = true
	}
	return linked
}

// typeArgs matches innermost bracketed type arguments; normalize applies
// it until none are left.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// normalize turns a linker symbol into declaration form: it drops
// bracketed type arguments and turns (*T).M into T.M.
func normalize(sym string) string {
	for typeArgs.MatchString(sym) {
		sym = typeArgs.ReplaceAllString(sym, "")
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(sym)
}
