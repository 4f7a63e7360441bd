package ctxflow_test

import (
	"testing"

	"smartdrill/tools/sdlint/analysis/analysistest"
	"smartdrill/tools/sdlint/analyzers/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), ctxflow.Analyzer, "ctxpkg", "internal/brs", "internal/brs/brsref")
}
