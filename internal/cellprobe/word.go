// Package cellprobe implements Yao's cell-probe model with the paper's
// limited-adaptivity refinement (§2): a data structure is a code mapping
// databases to tables of s cells of w bits, and a k-round cell-probing
// algorithm submits batches of parallel probes, where probes within one
// round may depend only on the query and on contents retrieved in earlier
// rounds.
//
// Tables are represented as oracles: a cell's content is a deterministic
// function of (database, public randomness, address), so the simulator
// evaluates cells on demand and memoizes them, keyed exactly on the
// address payload (memo.go).
// Nominal model sizes are reported separately (see DESIGN.md §3.1). Probe
// and round accounting is exact and limited adaptivity is *enforced*: the
// QueryCtx hands back an entire round's contents at once (Stage/Flush) and
// refuses probes after the round budget is exhausted.
package cellprobe

import "fmt"

// Kind discriminates cell contents.
type Kind uint8

const (
	// Empty is the paper's EMPTY symbol: no database point matches the cell.
	Empty Kind = iota
	// Point means the cell stores a database point (by index; in the model
	// the cell stores the d-bit point itself, within the O(d) word size).
	Point
	// Int means the cell stores a small integer (Algorithm 2's auxiliary
	// tables store an index in [1, s+1]).
	Int
)

// Word is the content of one table cell.
type Word struct {
	Kind  Kind
	Index int // database point index when Kind == Point
	Value int // integer payload when Kind == Int
}

// EmptyWord is the EMPTY cell content.
var EmptyWord = Word{Kind: Empty}

// PointWord returns a cell storing database point idx.
func PointWord(idx int) Word { return Word{Kind: Point, Index: idx} }

// IntWord returns a cell storing the integer v.
func IntWord(v int) Word { return Word{Kind: Int, Value: v} }

func (w Word) String() string {
	switch w.Kind {
	case Empty:
		return "EMPTY"
	case Point:
		return fmt.Sprintf("point(%d)", w.Index)
	case Int:
		return fmt.Sprintf("int(%d)", w.Value)
	default:
		return fmt.Sprintf("word(kind=%d)", w.Kind)
	}
}
