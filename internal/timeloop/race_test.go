//go:build race

package timeloop

func init() { raceEnabled = true }
