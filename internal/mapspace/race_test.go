//go:build race

package mapspace

func init() { raceEnabled = true }
