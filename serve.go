package smartdrill

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Helpers for building services on top of Engine (used by internal/server,
// the client SDK's test server, and cmd/smartdrilld): stable node
// addressing by ID, and construction of weighters from wire-format names.

// ErrUnknownNode reports a well-formed node ID that no displayed node
// carries — it was never assigned, or a collapse/re-expansion removed its
// node from the tree. Serving layers map it to their not-found error.
var ErrUnknownNode = errors.New("smartdrill: unknown node")

// NodeID returns n's stable wire identifier ("n1" is the root). The ID is
// assigned when an expansion puts the node on display and never reused
// within the session; after the node leaves the tree, resolving the ID
// yields ErrUnknownNode.
func (e *Engine) NodeID(n *Node) string {
	return "n" + strconv.FormatUint(n.ID(), 10)
}

// NodeByID resolves a stable node ID (as produced by NodeID) in O(1) via
// the session's id index — no tree walk. Malformed IDs yield a formatting
// error; well-formed IDs with no displayed node yield ErrUnknownNode.
func (e *Engine) NodeByID(id string) (*Node, error) {
	raw, ok := strings.CutPrefix(id, "n")
	if !ok || raw == "" {
		return nil, fmt.Errorf("smartdrill: malformed node ID %q (want \"n<number>\")", id)
	}
	num, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("smartdrill: malformed node ID %q (want \"n<number>\")", id)
	}
	n := e.s.NodeByID(num)
	if n == nil {
		return nil, fmt.Errorf("%w: %q is not (or no longer) displayed", ErrUnknownNode, id)
	}
	return n, nil
}

// WeighterNames lists the weighting functions WeighterByName accepts.
func WeighterNames() []string { return []string{"size", "bits", "size-1"} }

// WeighterByName constructs one of the named weighting functions for t:
// "size" (paper default), "bits", or "size-1". The empty name means "size".
func WeighterByName(t *Table, name string) (Weighter, error) {
	switch name {
	case "", "size":
		return SizeWeight(t), nil
	case "bits":
		return BitsWeight(t), nil
	case "size-1":
		return SizeMinusOneWeight(), nil
	default:
		return nil, fmt.Errorf("smartdrill: unknown weighter %q (want %s)", name, strings.Join(WeighterNames(), ", "))
	}
}

// AggregateName reports the display name of the session's aggregate column
// ("Count", or "Sum(column)" under WithSum).
func (e *Engine) AggregateName() string { return e.agg().Name() }

// K reports the session's rules-per-expansion setting.
func (e *Engine) K() int { return e.s.K() }
