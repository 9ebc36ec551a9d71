package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var i lib.I = lib.T{}
	i.ViaIface()
	fmt.Println(lib.T{})
	var b lib.Both = lib.Outer{}
	b.Promoted()
	b.Own()
	fmt.Println(lib.Box[int]{}.Get())
}
