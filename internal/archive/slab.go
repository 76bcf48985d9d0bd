package archive

import (
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
)

// Chunk sizes, in elements. Every slab and arena starts small and doubles
// per chunk, so a query that keeps a handful of records allocates a few
// kilobytes and one that keeps a decade allocates in 1024-record strides.
const (
	slabMin, slabMax       = 32, 1024
	portsMin, portsMax     = 256, 8192
	payloadMin, payloadMax = 256, 4096
)

// arena hands out runs of T from GC-owned chunks. take lends the arena's
// tail; keep commits it. A run that is taken and not kept — a record the
// predicate rejected — is lent again to the next record, so only what a
// query keeps is ever consumed. A run never straddles chunks: one that does
// not fit the current chunk starts a new one sized to hold it.
type arena[T any] struct {
	chunk    []T // len = committed
	min, max int // chunk size bounds; the next chunk is twice the last
}

func (a *arena[T]) take(n int) []T {
	// A lent run is never nil, even an empty one from an untouched arena: a
	// record with no ports decodes to an empty list, not to "not decoded".
	if a.chunk == nil || n > cap(a.chunk)-len(a.chunk) {
		size := min(max(2*cap(a.chunk), a.min), a.max)
		a.chunk = make([]T, 0, max(size, n))
	}
	off := len(a.chunk)
	// Capacity-clipped: appending to a kept run can never reach its
	// neighbour.
	return a.chunk[off : off+n : off+n]
}

func (a *arena[T]) keep(n int) { a.chunk = a.chunk[:len(a.chunk)+n] }

// run is a stretch of kept records in one slab chunk; origins parallels scans
// or is nil.
type run struct {
	scans   []core.Scan
	origins []enrich.Origin
}

// slabs is one decode worker's output memory for one Query: records decode
// in place into the tail slot of a scan slab (and a parallel origin slab),
// their ports and payload into arenas, and only a predicate match advances
// any of them.
//
// Ownership: every chunk is plain garbage-collected memory, allocated here
// and never pooled or reused across queries, because consumers keep what emit
// hands them — select-mode rows, the compactor's writer, benchmark shadow
// passes all hold *core.Scan and *enrich.Origin after the query returns. A
// kept scan therefore pins its slab chunk (up to slabMax records) and the
// arena chunks its Ports and Payload point into, and nothing else. Nothing
// here aliases the pooled blockScratch: ports and payload are decoded or
// copied out of the raw buffer, strings are interned copies.
type slabs struct {
	fields  Fields
	scans   arena[core.Scan]
	origins arena[enrich.Origin] // advances in lockstep with scans
	ports   arena[uint16]
	payload arena[byte]
}

func newSlabs(fields Fields) *slabs {
	return &slabs{
		fields:  fields,
		scans:   arena[core.Scan]{min: slabMin, max: slabMax},
		origins: arena[enrich.Origin]{min: slabMin, max: slabMax},
		ports:   arena[uint16]{min: portsMin, max: portsMax},
		payload: arena[byte]{min: payloadMin, max: payloadMax},
	}
}

// appendRun appends the records committed to the current chunk since start,
// if any, to runs.
func (sl *slabs) appendRun(runs []run, start int, withOrigin bool) []run {
	end := len(sl.scans.chunk)
	if end == start {
		return runs
	}
	r := run{scans: sl.scans.chunk[start:end]}
	if withOrigin {
		r.origins = sl.origins.chunk[start:end]
	}
	return append(runs, r)
}

// internMax bounds the string table; internSlots (a power of two) sizes the
// cache in front of it.
const (
	internMax   = 1024
	internSlots = 256
)

// interner returns one shared copy per distinct country and organization
// string instead of one allocation per record. The table lives on the pooled
// blockScratch, so a warm reader decodes origins without allocating; it is
// bounded — at internMax strings it starts over — so a store with a million
// organizations costs re-copies, not memory. A small direct-mapped cache
// answers the common case (two-letter country codes, a few dozen
// organizations) without hashing into the map; strings that collide there
// just take turns in the slot. The strings handed out are ordinary immutable
// Go strings copied from the raw buffer: sharing them across scans, blocks
// and queries is safe, and the table itself is never exposed.
type interner struct {
	slots [internSlots]string
	strs  map[string]string
}

func (t *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint32(len(b))
	for _, c := range b {
		h = h*31 + uint32(c)
	}
	slot := &t.slots[h&(internSlots-1)]
	if *slot == string(b) { // neither this conversion nor the lookup's allocates
		return *slot
	}
	s, ok := t.strs[string(b)]
	if !ok {
		if t.strs == nil {
			t.strs = make(map[string]string)
		} else if len(t.strs) >= internMax {
			clear(t.strs)
		}
		s = string(b)
		t.strs[s] = s
	}
	*slot = s
	return s
}
