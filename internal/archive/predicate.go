package archive

import (
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// Predicate is the reader's pushdown contract: anything that can (a) prove
// from a zone map alone that no scan in a block matches, (b) decide a
// decoded scan, and (c) say which strips Match reads and which anyone
// downstream reads. Reader.Query evaluates MatchBlock once per block — false
// skips the block without reading it — and Match once per decoded record.
// MatchBlock must be conservative: it may return true for a block with no
// matching scans (the decode filters them), but must never return false for
// a block containing one. Fields is the projection: it must cover what Match
// itself reads and what the consumer of emitted scans reads; strips outside
// it are not inflated and their fields read as zero (see Fields).
// MatchFields is the filter's own projection, within Fields: Match sees the
// parts of a record those strips carry, and every other part blank. A Match
// that reads no strip sees the same blank record every time, and is asked
// once per block for all of its records. Match receives the record's origin
// when the archive carries origins (see Reader.HasOrigins) and Fields
// includes an origin strip, nil otherwise.
//
// internal/query compiles arbitrary filter ASTs into Predicates.
type Predicate interface {
	MatchBlock(z *ZoneMap) bool
	Match(sc *core.Scan, o *enrich.Origin) bool
	Fields() Fields
	MatchFields() Fields
}

// All is the Predicate that matches every block and every scan and projects
// every field: a full scan of the archive, whose filter reads nothing.
var All Predicate = all{}

type all struct{}

func (all) MatchBlock(*ZoneMap) bool              { return true }
func (all) Match(*core.Scan, *enrich.Origin) bool { return true }
func (all) Fields() Fields                        { return AllFields }
func (all) MatchFields() Fields                   { return 0 }
