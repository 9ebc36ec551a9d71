// Package lib holds one exported function or method for each case the
// scan must tell apart.
package lib

import "fmt"

// Unused is called by nothing: reported.
func Unused() {}

// Allowed is called by nothing but is on the allow-list: not reported.
func Allowed() {}

// UsedByTool is called only from the nested module: not reported.
func UsedByTool() {}

// T carries methods used in different ways.
type T struct{}

// OnlyTest is called only from lib_test.go: reported.
func (T) OnlyTest() {}

// ViaIface is called only through the interface I: not reported.
func (T) ViaIface() {}

// String is called only by fmt, through fmt.Stringer: not reported.
func (T) String() string { return fmt.Sprint("T") }

// I is the interface app calls ViaIface through.
type I interface{ ViaIface() }

// Inner's method reaches an interface only through Outer, which embeds it.
type Inner struct{}

// Promoted is called only through Both, on an Outer: not reported.
func (Inner) Promoted() {}

// Outer implements Both with its own method and Inner's promoted one.
type Outer struct{ Inner }

// Own is called only through Both: not reported.
func (Outer) Own() {}

// Both is the interface app calls Promoted and Own through.
type Both interface {
	Promoted()
	Own()
}

// Box is generic; app calls Get on an instantiation.
type Box[V any] struct{ v V }

// Get is called only as Box[int].Get: not reported.
func (b Box[V]) Get() V { return b.v }

type hidden struct{}

// Exported is a method of an unexported type, so no part of the API: not
// reported although nothing calls it.
func (hidden) Exported() {}
