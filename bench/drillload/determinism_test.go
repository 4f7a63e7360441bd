package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestDeterminism: the script is a function of the seed alone. The same
// seed gives the same request-script hash and the same wire work counters
// on every workload; another seed gives another script; and nothing the
// server is handed — its argv, any request — names the seed or the
// workload.
func TestDeterminism(t *testing.T) {
	first := gatedRun(t)
	again, err := runGated(context.Background(), testConfig(t, testSeed), workloads())
	if err != nil {
		t.Fatal(err)
	}
	// On the two workloads where the seed decides more than a listing
	// column: session order and expanded nodes, and the sampling seeds.
	seeded := map[string]*result{}
	other, err := runGated(context.Background(), testConfig(t, testSeed+1),
		[]*workload{workloadByName("hot-durable"), workloadByName("sampled-1m")})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range other {
		seeded[c.Workload] = c
	}
	for i, a := range first {
		b := again[i]
		if a.ScriptHash != b.ScriptHash {
			t.Errorf("%s: same seed, script hashes %s and %s", a.Workload, a.ScriptHash[:12], b.ScriptHash[:12])
		}
		if !reflect.DeepEqual(a.Wire, b.Wire) {
			t.Errorf("%s: same seed, wire work differs:\n%v\n%v", a.Workload, wireString(a), wireString(b))
		}
		if c := seeded[a.Workload]; c != nil && a.ScriptHash == c.ScriptHash {
			t.Errorf("%s: seeds %d and %d give the same script", a.Workload, a.Seed, c.Seed)
		}
		seed := fmt.Sprint(a.Seed)
		for _, handed := range [][]string{a.ServerArgs, a.script} {
			for _, line := range handed {
				if strings.Contains(line, seed) || strings.Contains(line, a.Workload) {
					t.Errorf("%s: the server was handed %q", a.Workload, line)
				}
			}
		}
		if len(a.ServerArgs) == 0 || len(a.script) == 0 {
			t.Errorf("%s: nothing recorded to check (%d args, %d script lines)", a.Workload, len(a.ServerArgs), len(a.script))
		}
	}
}

func wireString(r *result) string {
	var sb strings.Builder
	for class, w := range r.Wire {
		fmt.Fprintf(&sb, "%s=%+v ", class, *w)
	}
	return sb.String()
}
