package viewescape_test

import (
	"testing"

	"cyclojoin/internal/lint/linttest"
	"cyclojoin/internal/lint/viewescape"
)

func TestViewEscape(t *testing.T) {
	linttest.Run(t, viewescape.Analyzer, "viewescape")
}

// TestViewEscapeCrossPackage threads dep's facts into use's pass, the
// same way cyclolint threads a module package's facts into its importers.
func TestViewEscapeCrossPackage(t *testing.T) {
	linttest.Run(t, viewescape.Analyzer, "viewdep/dep", "viewdep/use")
}
