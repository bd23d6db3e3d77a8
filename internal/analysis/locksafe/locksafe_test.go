package locksafe_test

import (
	"testing"

	"directload/internal/analysis/analysistest"
	"directload/internal/analysis/locksafe"
)

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, "testdata", locksafe.Analyzer, "server", "core")
}
