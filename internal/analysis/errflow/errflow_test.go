package errflow_test

import (
	"testing"

	"directload/internal/analysis/analysistest"
	"directload/internal/analysis/errflow"
)

func TestErrFlow(t *testing.T) {
	analysistest.Run(t, "testdata", errflow.Analyzer, "store")
}

// TestErrFlowRESPFront covers the protocol-front-end shape: reply
// flushes through bufio.Writer inside a connection handler.
func TestErrFlowRESPFront(t *testing.T) {
	analysistest.Run(t, "testdata", errflow.Analyzer, "respfront")
}
