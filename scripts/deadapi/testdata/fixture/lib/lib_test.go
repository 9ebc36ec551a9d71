package lib

import "testing"

func TestOnlyTest(t *testing.T) {
	T{}.OnlyTest()
	Unused()
}
