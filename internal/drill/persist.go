package drill

import (
	"encoding/json"
	"fmt"
	"io"

	"smartdrill/internal/rule"
)

// Session persistence: an analyst's drill-down tree is cheap to serialize
// (rules + display statistics) and restoring it against the same table
// resumes the exploration where it stopped. Samples are deliberately not
// persisted — they are rebuilt on demand, keeping snapshots tiny and
// avoiding stale estimates.

// snapshotNode is the JSON form of a displayed node. Rules are stored as
// decoded strings so snapshots remain readable and survive dictionary-id
// reassignment across table reloads; a star is JSON null, which no cell
// value can collide with (a column may well hold the literal "?").
type snapshotNode struct {
	// ID is the node's session-scoped stable identifier. Persisting it
	// lets a restored session keep every wire address valid — an analyst
	// who drilled "n4" before a server restart can refine "n4" after it.
	ID     uint64    `json:"id"`
	Values []*string `json:"values"`
	Weight float64   `json:"weight"`
	Count  float64   `json:"count"`
	Exact  bool      `json:"exact"`
	// HasCI marks CILow/CIHigh as a genuine interval.
	HasCI    bool           `json:"hasCI,omitempty"`
	CILow    float64        `json:"ciLow,omitempty"`
	CIHigh   float64        `json:"ciHigh,omitempty"`
	Children []snapshotNode `json:"children,omitempty"`
}

type snapshot struct {
	Columns []string     `json:"columns"`
	Root    snapshotNode `json:"root"`
	// NextID is the session's ID-sequence high-water mark, so nodes
	// created after a restore never collide with IDs the snapshot's
	// analyst already saw (including IDs of nodes collapsed away before
	// the save).
	NextID uint64 `json:"nextId,omitempty"`
}

// Save writes the displayed tree as compact JSON ended by one newline. Load
// reads that and any other spacing of it — whitespace between JSON tokens
// means nothing — so the indented files of older builds still load.
func (s *Session) Save(w io.Writer) error {
	snap := snapshot{
		Columns: append([]string{}, s.tab.ColumnNames()...),
		Root:    s.snapshotOf(s.root),
		NextID:  s.nextID,
	}
	return json.NewEncoder(w).Encode(snap)
}

func (s *Session) snapshotOf(n *Node) snapshotNode {
	cells := s.tab.DecodeRule(n.Rule)
	values := make([]*string, len(cells))
	for _, c := range n.Rule.InstantiatedColumns() {
		values[c] = &cells[c]
	}
	out := snapshotNode{
		ID:     n.id,
		Values: values,
		Weight: n.Weight,
		Count:  n.Count,
		Exact:  n.Exact,
		HasCI:  n.HasCI,
		CILow:  n.CILow,
		CIHigh: n.CIHigh,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, s.snapshotOf(c))
	}
	return out
}

// Load replaces the displayed tree with a previously saved one. The
// session's table must have the same column names; rule values absent from
// the current table are rejected (the snapshot describes different data).
func (s *Session) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("drill: decoding snapshot: %w", err)
	}
	cols := s.tab.ColumnNames()
	if len(snap.Columns) != len(cols) {
		return fmt.Errorf("drill: snapshot has %d columns, table has %d", len(snap.Columns), len(cols))
	}
	for i := range cols {
		if snap.Columns[i] != cols[i] {
			return fmt.Errorf("drill: snapshot column %d is %q, table has %q", i, snap.Columns[i], cols[i])
		}
	}
	root, err := s.restore(snap.Root, nil)
	if err != nil {
		return err
	}
	if !root.Rule.IsTrivial() {
		return fmt.Errorf("drill: snapshot root is not the trivial rule")
	}
	// Commit: the old tree's index is dropped wholesale and the restored
	// nodes are re-registered under their recorded IDs — wire addresses
	// survive the Load, which is what lets a rehydrated server session
	// resume exactly where the analyst stopped. The commit happens only
	// now, so a failed Load leaves the session's index untouched.
	byID := make(map[uint64]*Node)
	maxID, err := indexTree(root, byID)
	if err != nil {
		return err
	}
	s.byID = byID
	s.nextID = max(snap.NextID, maxID)
	s.root = root
	s.cover = coverSlot{} // the old tree's coverage
	s.rev++
	return nil
}

// indexTree registers a restored subtree under its snapshot-recorded IDs,
// returning the largest ID seen. Zero or duplicate IDs mean a corrupt or
// hand-edited snapshot and are rejected before any commit.
func indexTree(n *Node, byID map[uint64]*Node) (maxID uint64, err error) {
	if n.id == 0 {
		return 0, fmt.Errorf("drill: snapshot node %v has no id", n.Rule)
	}
	if _, dup := byID[n.id]; dup {
		return 0, fmt.Errorf("drill: snapshot reuses node id %d", n.id)
	}
	byID[n.id] = n
	maxID = n.id
	for _, c := range n.Children {
		m, err := indexTree(c, byID)
		if err != nil {
			return 0, err
		}
		maxID = max(maxID, m)
	}
	return maxID, nil
}

func (s *Session) restore(sn snapshotNode, parent *Node) (*Node, error) {
	if len(sn.Values) != s.tab.NumCols() {
		return nil, fmt.Errorf("drill: snapshot rule has %d values, table has %d columns",
			len(sn.Values), s.tab.NumCols())
	}
	r := rule.Trivial(s.tab.NumCols())
	for c, v := range sn.Values {
		if v == nil {
			continue
		}
		id, ok := s.tab.Dict(c).Lookup(*v)
		if !ok {
			return nil, fmt.Errorf("drill: snapshot value %q not in column %q", *v, s.tab.ColumnNames()[c])
		}
		r[c] = id
	}
	n := &Node{
		id:     sn.ID,
		Rule:   r,
		Weight: sn.Weight,
		Count:  sn.Count,
		Exact:  sn.Exact,
		HasCI:  sn.HasCI,
		CILow:  sn.CILow,
		CIHigh: sn.CIHigh,
		parent: parent,
	}
	for _, c := range sn.Children {
		child, err := s.restore(c, n)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
	return n, nil
}
