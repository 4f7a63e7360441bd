package ioaccount_test

import (
	"testing"

	"smartdrill/tools/sdlint/analysis/analysistest"
	"smartdrill/tools/sdlint/analyzers/ioaccount"
)

func TestIoaccount(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), ioaccount.Analyzer, "internal/brs", "internal/storage", "internal/drill")
}
