package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/track.(*Graphene).Activate":                  "repro/internal/track.Graphene.Activate",
		"repro/internal/track.Config.Validate":                       "repro/internal/track.Config.Validate",
		"repro/internal/testutil.Must[go.shape.*uint8]":              "repro/internal/testutil.Must",
		"repro/internal/harness.(*ring[go.shape.struct {}]).Put":     "repro/internal/harness.ring.Put",
		"repro/internal/exp.Sweep.func1.2":                           "repro/internal/exp.Sweep.func1.2",
		"repro/internal/a.F[go.shape.[]int,go.shape.map[string]int]": "repro/internal/a.F",
	} {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadSymbolsMarksPrefixes(t *testing.T) {
	in := strings.Join([]string{
		"repro/internal/exp.Sweep.func1",
		"repro/internal/track.(*CRA).Activate",
		"runtime.main",
		"repro.MustNew",
	}, "\n")
	got := readSymbols(in)
	for _, name := range []string{
		"repro/internal/exp.Sweep", "repro/internal/exp.Sweep.func1",
		"repro/internal/track.CRA", "repro/internal/track.CRA.Activate",
		"repro.MustNew",
	} {
		if !got[name] {
			t.Errorf("%s not marked linked", name)
		}
	}
	if got["repro/internal/exp.Sweep.func2"] || got["repro/internal/track.CRA.Reset"] {
		t.Errorf("marked a name no symbol proves: %v", got)
	}
}

func TestListDeclsAndCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	root := write("root.go", "package repro\nfunc New() {}\n")
	a := write("a.go", "package a\ntype T[K any] struct{}\nfunc (t *T[K]) Get() {}\nfunc (T[K]) Put() {}\nfunc helper() {}\nfunc init() {}\n")
	decls, err := listDecls("repro " + root + "\nrepro/internal/a " + a + "\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"repro.New", "repro/internal/a.T.Get", "repro/internal/a.T.Put", "repro/internal/a.helper"}
	if !reflect.DeepEqual(decls, want) {
		t.Fatalf("listDecls = %v, want %v", decls, want)
	}

	linked := map[string]bool{"repro.New": true, "repro/internal/a.T.Get": true}
	unreached, stale := check(decls, linked, []string{"repro/internal/a.helper", "repro/internal/a.gone", "repro.New"})
	if !reflect.DeepEqual(unreached, []string{"repro/internal/a.T.Put"}) {
		t.Errorf("unreached = %v", unreached)
	}
	if !reflect.DeepEqual(stale, []string{"repro/internal/a.gone", "repro.New"}) {
		t.Errorf("stale = %v", stale)
	}
	if unreached, stale := check(decls, linked, []string{"repro/internal/a.*"}); len(unreached)+len(stale) != 0 {
		t.Errorf("package wildcard: unreached %v, stale %v", unreached, stale)
	}
}
