package server

import (
	"testing"

	"smartdrill/internal/leakcheck"
)

// TestMain fails the binary if any test leaks a goroutine — refiners,
// warmers, SSE writers, and rehydration must all drain. The task groups
// count every background spawn; this proves the counting drains.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
