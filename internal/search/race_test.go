//go:build race

package search

func init() { raceEnabled = true }
