package server

// Documentation gate: the checked-in OpenAPI spec must cover every
// mounted /v1 route (and never contain tabs, which YAML forbids in
// indentation — the cheapest in-repo parse check without a YAML
// dependency; CI additionally parses the file with a real YAML loader).

import (
	"os"
	"strings"
	"testing"
)

func TestOpenAPISpecCoversRoutes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/openapi.yaml")
	if err != nil {
		t.Fatalf("spec missing: %v", err)
	}
	spec := string(raw)
	if !strings.HasPrefix(spec, "openapi:") {
		t.Fatal("docs/openapi.yaml does not start with an openapi version stanza")
	}
	if strings.Contains(spec, "\t") {
		t.Fatal("docs/openapi.yaml contains tab characters (invalid YAML indentation)")
	}
	// One entry per mux pattern in routes(); update both together.
	routes := []string{
		"/v1/health:",
		"/v1/datasets:",
		"/v1/sessions:",
		"/v1/sessions/{id}/tree:",
		"/v1/sessions/{id}/drill:",
		"/v1/sessions/{id}/collapse:",
		"/v1/sessions/{id}/refine:",
		"/v1/sessions/{id}/traditional:",
		"/v1/sessions/{id}/drill/stream:",
		"/v1/sessions/{id}:",
	}
	for _, r := range routes {
		if !strings.Contains(spec, r) {
			t.Errorf("docs/openapi.yaml missing path %q", strings.TrimSuffix(r, ":"))
		}
	}
	// Error codes are sdlint's: apicodes holds every api.ErrorCode to the spec.
}
