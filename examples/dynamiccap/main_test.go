package main

import (
	"testing"

	"acsel/internal/golden"
)

// TestStdoutGolden pins this example's output byte for byte. The golden
// is written by
//
//	go run ./examples/dynamiccap > examples/dynamiccap/testdata/stdout.golden
//
// Regenerate it only for a change that means to move the results.
func TestStdoutGolden(t *testing.T) {
	golden.Stdout(t, "testdata/stdout.golden", main)
}
