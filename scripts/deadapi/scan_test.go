package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The fixture module holds one export per case: only the unused function
// and the method that only a test calls are dead. Calls through an
// interface, through fmt.Stringer, through a field embedding, through a
// generic instantiation and from a nested module all count as uses, and an
// allow-listed function is not reported.
func TestFixture(t *testing.T) {
	got, err := run("testdata/fixture", "testdata/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:20: fixture/lib.T.OnlyTest",
		"lib/lib.go:8: fixture/lib.Unused",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// An allow-list line that names nothing, or names an export that is used,
// fails the scan.
func TestStaleAllowLines(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	list := "fixture/lib.Allowed kept\n" +
		"fixture/lib.T.OnlyTest only a test calls it\n" +
		"fixture/lib.Unused kept\n" +
		"fixture/lib.Gone deleted long ago\n" +
		"fixture/lib.T.ViaIface called through lib.I\n"
	if err := os.WriteFile(allow, []byte(list), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := run("testdata/fixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		allow + ":4: fixture/lib.Gone names no exported function or method",
		allow + ":5: fixture/lib.T.ViaIface is used; delete its line",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestAllowLineNeedsReason(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(allow, []byte("# comment\n\nfixture/lib.Allowed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run("testdata/fixture", allow); err == nil || !strings.Contains(err.Error(), ":3: fixture/lib.Allowed has no reason") {
		t.Fatalf("err = %v, want a missing-reason error for line 3", err)
	}
}
