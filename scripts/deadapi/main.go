// Command deadapi lists the exported functions and methods of a Go module
// that no non-test code calls, and fails when one is not on its allow-list.
//
//	go -C scripts/deadapi run . ../..
//
// The argument is a module root. Every module nested under it (a directory
// with its own go.mod, outside testdata) is read too, as a user of the root
// module's packages; only the root module's functions, and the methods of
// its exported types, are reported. Each package is type-checked from
// source with go/types; what it imports comes from the export data that
// `go list -export` leaves in the build cache, so the scan needs no network
// and no tool beyond the go command.
//
// A function or method is used when some non-test file names it: a call, a
// method value, a promoted method reached through an embedded field, or an
// instantiation of a generic one. A method is also used when its type, or a
// type that embeds it, implements an interface that declares the method:
// an interface in the dependency closure (fmt.Stringer, error,
// json.Marshaler) or in the scanned code (costmodel.Evaluator). A dynamic
// call through that interface leaves no name to find. Types and interfaces
// are matched by method name and signature, since one package read from
// source and from export data gives two sets of type objects.
//
// The allow-list, allow.txt in the current directory, names the
// exceptions, one a line: the name as the scan prints it, then its reason.
// Blank lines and lines starting with # are skipped. A line whose name no
// longer exists, or is now used, fails the scan as well, so the list cannot
// go stale.
package main

import (
	"fmt"
	"os"
)

const allowFile = "allow.txt"

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: deadapi dir")
		os.Exit(2)
	}
	problems, err := run(os.Args[1], allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "deadapi: %d problem(s); delete the function, or add it to %s with a reason\n", len(problems), allowFile)
		os.Exit(1)
	}
}
