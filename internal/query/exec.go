package query

import (
	"cmp"
	"errors"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"unsafe"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/sketch"
	"github.com/synscan/synscan/internal/stats"
)

// defaultSelectLimit caps select-mode responses when the request names none.
const defaultSelectLimit = 1000

// topKCapacity sizes the Space-Saving tracker for a requested k: generously
// over-provisioned so per-segment partials stay unsaturated (and therefore
// merge exactly) on realistic cardinalities, while still bounded.
func topKCapacity(k int) int {
	c := 8 * k
	if c < 4096 {
		c = 4096
	}
	if c > maxTopK {
		c = maxTopK
	}
	return c
}

// Executor streams scans into per-group aggregate state: one Executor per
// partial (a static archive, one segment-store view), merged in stream order
// and finished once. Aggregation happens during the scan — no scan list is
// ever materialized; per-group state is counters, a distinct set or sketch,
// a bounded heavy-hitter tracker, or a float64 quantile sample.
//
// A group is identified by a packed fixed-size key (see groupKey) and its
// aggregate states sit in one flat slice — observing a scan into groups that
// already exist allocates nothing, however many ports it fans out over. The
// group table has two layouts (see groupOf). Hashed, the one every executor
// starts in: an open-addressed table from key to group number, keys stored
// by group number in first-seen order. Direct, for a group_by of one field
// whose values fit in 16 bits (in practice port): the group number is the
// coordinate itself, states sit in coordinate order behind a presence
// bitmap, and keys are derived, not stored. A hashed table of such a field
// converts at the doubling whose allocation would reach the direct table's
// (spillSlots), so a decade's sweeps over sorted ports walk their states in
// order instead of probing at random.
//
// Its buffers come from the package's free lists (free.go) and go back to
// them when Finish has rendered the result or Merge has consumed the partial;
// the executor is then spent.
//
// Not safe for concurrent use; run one Executor per goroutine and Merge.
type Executor struct {
	q   *Query
	err error

	// Select mode.
	selLimit int
	scans    []ScanRec

	// Aggregate mode.
	matched     uint64
	group       []operand // q.GroupBy, resolved
	ops         []operand // q.Aggs' fields, resolved
	portAt      int       // index of FieldPort in q.GroupBy, or -1
	originGroup bool      // a q.GroupBy field needs the origin
	extended    bool      // a q.Aggs operator keeps an aggExt: the states hold pointers
	groups      int       // groups open, in either layout
	// Hashed layout.
	slots      []int32    // group number + 1 by key hash, 0 = empty; nil once direct
	keys       []groupKey // by group number: first-seen stream order
	spillSlots int        // the slot count whose doubling converts to direct instead; 0 = never
	// Direct layout: present is nil while hashed.
	present []uint64 // bit c set when coordinate c's group exists

	aggs    []aggState // group g's aggregate i at g*len(q.Aggs)+i, in either layout
	dict    dictionary // country/org coordinates
	years   archive.YearCache
	setMult uint64 // the multiplier distinct sets move to when a probe run grows long
}

// groupKey packs up to maxGroupBy coordinates of at most 32 bits each, two
// per word, in group_by order: years, tools, ports, flags, ISN classes, ASNs
// and scanner types are their own values, country and organization names are
// ids in the executor's dictionary. A fixed-size comparable value: it is
// hashed and compared as it stands, and nothing is rendered until Finish.
type groupKey [(maxGroupBy + 1) / 2]uint64

func (k *groupKey) set(i int, v uint32) {
	shift := uint(i&1) * 32
	k[i>>1] = k[i>>1]&^(0xffffffff<<shift) | uint64(v)<<shift
}

func (k *groupKey) get(i int) uint32 { return uint32(k[i>>1] >> (uint(i&1) * 32)) }

// hash spreads a key over 64 bits, the top ones best (Fibonacci hashing):
// keys are small integers side by side, a sweep's ports consecutive ones.
func (k *groupKey) hash() uint64 {
	return (k[0] ^ bits.RotateLeft64(k[1]*0xff51afd7ed558ccd, 32)) * 0x9e3779b97f4a7c15
}

// dictionary numbers the distinct strings an executor has grouped by. Ids are
// private to one executor; Merge translates the other side's.
type dictionary struct {
	ids  map[string]uint32
	strs []string
}

func (d *dictionary) id(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	id := uint32(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// aggState is one aggregate of one group.
type aggState struct {
	n   uint64  // count, or the exact integer sum
	f   float64 // float sum
	ext *aggExt // set, sketch or samples, by operator; nil until first use
}

type aggExt struct {
	set     distinctSet
	hll     *sketch.HyperLogLog
	topk    *sketch.TopK
	samples []float64
}

// ScanRec is one select-mode result: the scan and, when the source carries
// enrichment, its origin.
type ScanRec struct {
	Scan   *core.Scan
	Origin *enrich.Origin
}

// NewExecutor builds a partial executor for a validated query.
func NewExecutor(q *Query) *Executor {
	e := &Executor{q: q, portAt: -1}
	if q.SelectMode() {
		e.selLimit = q.Limit
		if e.selLimit == 0 {
			e.selLimit = defaultSelectLimit
		}
		return e
	}
	e.slots = int32s.take(minGroupSlots)
	clear(e.slots)
	e.keys = keys.take(minGroupSlots / 2)[:0]
	e.aggs = states.take(minGroupSlots / 2 * len(q.Aggs))[:0]
	for i, f := range q.GroupBy {
		if f == FieldPort {
			e.portAt = i
		}
		e.group = append(e.group, e.resolve(f, true))
		e.originGroup = e.originGroup || f.def().needsOrigin()
	}
	for _, a := range q.Aggs {
		e.ops = append(e.ops, e.resolve(a.Field, false))
		e.extended = e.extended || a.Op != OpCount && a.Op != OpSum
		if a.Op == OpCountDistinct && e.setMult == 0 {
			e.setMult = setMultiplier(rand.Uint64)
		}
	}
	if len(q.GroupBy) == 1 && e.group[0].fits16() {
		e.spillSlots = spillSlots(len(q.Aggs))
	}
	return e
}

// fits16 reports whether every value of the field, as a group coordinate,
// fits in 16 bits: a direct table of 2^16 groups can hold all of them.
func (d *fieldDef) fits16() bool {
	switch d.kind {
	case kindInt:
		return d.max < directGroups
	case kindEnum:
		return d.enum.n <= directGroups
	case kindBool:
		return true
	}
	return false
}

// operand is one field of the query resolved for an executor: its row, and
// its discrete accessor as a plain function value, so the per-scan path looks
// nothing up.
type operand struct {
	*fieldDef
	// value is the row's disc, except that a string stands for its id in the
	// executor's dictionary as a group coordinate and for its FNV-1a hash
	// (stable across processes) as a distinct/top-k key, and that the year
	// comes from the executor's cache: two comparisons where the row's
	// accessor breaks the timestamp down for every scan. Nil for port.
	value intFn
}

func (e *Executor) resolve(f Field, coord bool) operand {
	d := f.def()
	op := operand{fieldDef: d, value: d.disc}
	switch {
	case d.str != nil && coord:
		op.value = func(_ *core.Scan, o *enrich.Origin) uint64 { return uint64(e.dict.id(d.str(o))) }
	case d.str != nil:
		op.value = func(_ *core.Scan, o *enrich.Origin) uint64 { return hashString(d.str(o)) }
	case f == FieldYear:
		op.value = func(sc *core.Scan, _ *enrich.Origin) uint64 { return uint64(e.years.Year(sc.Start)) }
	}
	return op
}

// Observe folds one matching scan into the partial state. The caller has
// already applied the query's filter (the reader's predicate pushdown);
// Observe only aggregates. o is nil when the source carries no origins. sc
// and o are only lent (see Source): a select-mode row is a copy.
func (e *Executor) Observe(sc *core.Scan, o *enrich.Origin) {
	if e.err != nil {
		return
	}
	e.matched++
	if e.q.SelectMode() {
		if len(e.scans) < e.selLimit {
			var op *enrich.Origin
			if o != nil {
				cp := *o
				op = &cp
			}
			e.scans = append(e.scans, ScanRec{Scan: sc.Clone(), Origin: op})
		}
		return
	}
	if len(e.group) == 0 && e.groups == 1 {
		e.fold(0, sc, o, 1) // the one group there is: no key to hash
		return
	}
	if e.portAt == 0 && e.present != nil {
		e.foldPorts(sc, o)
		return
	}
	if o == nil && e.originGroup {
		return // an origin group-by over an origin-less scan
	}
	var key groupKey
	for i := range e.group {
		if value := e.group[i].value; value != nil {
			key.set(i, uint32(value(sc, o)))
		}
	}
	if e.portAt < 0 {
		e.observeRow(&key, sc, o, 1)
		return
	}
	// FieldPort explodes one row per targeted port — the same key with one
	// coordinate rewritten — and packet sums are then split evenly across the
	// port rows (integer division, matching the exact per-port packet tables).
	for _, p := range sc.Ports {
		key.set(e.portAt, uint32(p))
		if !e.observeRow(&key, sc, o, len(sc.Ports)) {
			return
		}
	}
}

// minGroupSlots is the hashed table's initial size; sizes are powers of two.
const minGroupSlots = 16

// The two layouts' sizes. A hashed table with room for c groups holds 2c
// slots, c keys and c·n states for n aggregates; a direct one holds 2^16·n
// states and a bitmap of 2^16 bits, whatever it holds.
const (
	directGroups     = 1 << 16
	stateBytes       = int(unsafe.Sizeof(aggState{}))
	hashedGroupBytes = 2*int(unsafe.Sizeof(int32(0))) + int(unsafe.Sizeof(groupKey{}))
)

// spillSlots is the slot count at which a hashed table of n aggregates per
// group converts to direct instead of doubling: the first doubling whose
// allocation, (2·4 + 16 + 24n) bytes per group it makes room for, reaches the
// direct table's 2^16 · 24n bytes of states (its 8 KB bitmap, half a percent
// of the smallest, aside). With one aggregate that is the doubling past 2^14
// groups — 256 KB of slots, 512 KB of keys and 768 KB of states against
// 1.5 MB — and with more, the one past 2^15, after which no 16-bit field
// could need another. A table that stays below it never pays for 65 536
// groups it does not have.
func spillSlots(n int) int {
	s := minGroupSlots
	for s*(hashedGroupBytes+n*stateBytes) < directGroups*n*stateBytes {
		s *= 2
	}
	return s
}

// slotOf probes the hashed table for key: the slot holding its group, or the
// empty slot where it belongs. The table is open-addressed with linear
// probing and at most half full, and holds only group numbers — the keys stay
// in e.keys. A row costs a random access into the slots and one into the
// keys; past the spill, the direct layout costs neither.
//
// The key travels down from Observe by pointer. By value, each level copied
// its 16 bytes with one wide load straight after the 8-byte store that set
// the port coordinate — a load the CPU cannot forward from the store, about
// a dozen cycles per row and level, paid or not depending on where the
// frames happened to sit in their cache lines.
func (e *Executor) slotOf(key *groupKey) int {
	mask := len(e.slots) - 1
	i := int(key.hash() >> uint(64-bits.Len(uint(mask))))
	for {
		g := e.slots[i]
		if g == 0 || e.keys[g-1] == *key {
			return i
		}
		i = (i + 1) & mask
	}
}

// groupOf returns key's group number, opening the group if it is new; false
// means the group cap was hit and e.err is set. Direct, the number is the
// key's one coordinate; hashed, the group's place in opening order.
func (e *Executor) groupOf(key *groupKey) (int, bool) {
	if e.present != nil {
		c := key.get(0)
		w, bit := &e.present[c>>6], uint64(1)<<(c&63)
		if *w&bit == 0 {
			if e.capped() {
				return 0, false
			}
			*w |= bit
			e.groups++
		}
		return int(c), true
	}
	slot := e.slotOf(key)
	if g := e.slots[slot]; g != 0 {
		return int(g - 1), true
	}
	if e.capped() {
		return 0, false
	}
	g, n := e.groups, len(e.q.Aggs)
	if 2*(g+1) > len(e.slots) {
		if len(e.slots) == e.spillSlots {
			e.spill()
			return e.groupOf(key)
		}
		// Keys and states grow in step with the table, to exactly the groups
		// it can hold, so a growing executor copies each of them once per
		// doubling and never between.
		old := e.slots
		e.slots = int32s.take(2 * len(old))
		clear(e.slots)
		int32s.give(old)
		for g, k := range e.keys {
			e.slots[e.slotOf(&k)] = int32(g + 1)
		}
		slot = e.slotOf(key)
		room := len(e.slots)/2 - g
		e.keys = keys.grow(e.keys, room)
		aggs := states.take(len(e.slots) / 2 * n)[:len(e.aggs)]
		copy(aggs, e.aggs)
		e.giveStates(e.aggs)
		e.aggs = aggs
	}
	e.slots[slot] = int32(g + 1)
	e.keys = append(e.keys, *key)
	for i := 0; i < n; i++ {
		e.aggs = append(e.aggs, aggState{})
	}
	e.groups++
	return g, true
}

// capped reports whether the group cap leaves no room for another group,
// setting e.err if so.
func (e *Executor) capped() bool {
	if e.groups < maxGroups {
		return false
	}
	e.err = errf("query exceeds %d groups; add a filter or coarser grouping", maxGroups)
	return true
}

// spill converts the hashed table to the direct layout: each group's states
// move to its coordinate's place, and the slots and keys go.
func (e *Executor) spill() {
	n := len(e.q.Aggs)
	aggs := states.take(directGroups * n)
	clear(aggs)
	e.present = uint64s.take(directGroups / 64)
	clear(e.present)
	for g := range e.keys {
		c := int(e.keys[g].get(0))
		copy(aggs[c*n:c*n+n], e.aggs[g*n:g*n+n])
		e.present[c>>6] |= 1 << (c & 63)
	}
	e.giveStates(e.aggs)
	int32s.give(e.slots)
	keys.give(e.keys)
	e.aggs, e.slots, e.keys = aggs, nil, nil
}

// eachGroup calls f with every group's number and key — hashed groups in
// opening order, direct ones by coordinate — until f returns false.
func (e *Executor) eachGroup(f func(g int, key groupKey) bool) {
	if e.present == nil {
		for g, key := range e.keys {
			if !f(g, key) {
				return
			}
		}
		return
	}
	for w, word := range e.present {
		for ; word != 0; word &= word - 1 {
			g := w<<6 | bits.TrailingZeros64(word)
			if !f(g, e.keyOf(int32(g))) {
				return
			}
		}
	}
}

// keyOf returns group g's key: stored when hashed, derived when direct.
func (e *Executor) keyOf(g int32) groupKey {
	if e.present == nil {
		return e.keys[g]
	}
	var key groupKey
	key.set(0, uint32(g))
	return key
}

// ranks returns a function numbering the groups 0, 1, … in eachGroup's order:
// a hashed group's rank is its number, a direct group's the count of groups
// present below its coordinate (from a 4 KB prefix count per bitmap word,
// which it also returns for the caller to give back).
func (e *Executor) ranks() (func(g int32) int32, []int32) {
	if e.present == nil {
		return func(g int32) int32 { return g }, nil
	}
	below := int32s.take(len(e.present))
	var r int32
	for w, word := range e.present {
		below[w] = r
		r += int32(bits.OnesCount64(word))
	}
	return func(g int32) int32 {
		return below[g>>6] + int32(bits.OnesCount64(e.present[g>>6]&(1<<(g&63)-1)))
	}, below
}

// observeRow folds one scan row into key's group.
func (e *Executor) observeRow(key *groupKey, sc *core.Scan, o *enrich.Origin, portSplit int) bool {
	g, ok := e.groupOf(key)
	if !ok {
		return false
	}
	e.fold(g, sc, o, portSplit)
	return true
}

// fold folds one scan row into group g's aggregates.
func (e *Executor) fold(g int, sc *core.Scan, o *enrich.Origin, portSplit int) {
	n := len(e.q.Aggs)
	states := e.aggs[g*n : g*n+n]
	for i := range states {
		e.observeAgg(&e.q.Aggs[i], &e.ops[i], &states[i], sc, o, portSplit)
	}
}

// foldPorts folds a scan into the groups of its ports in the direct layout
// of a port grouping: it opens the groups of the whole port run, then folds
// the run one aggregate at a time — a count or an integer sum touching only
// the states, every other operator through observeAgg port by port — so each
// group's state sees the operations the per-port path gives it, in the same
// order, without a call per port and aggregate.
func (e *Executor) foldPorts(sc *core.Scan, o *enrich.Origin) {
	ports := sc.Ports
	for _, p := range ports {
		w, bit := &e.present[p>>6], uint64(1)<<(p&63)
		if *w&bit == 0 {
			if e.capped() {
				return
			}
			*w |= bit
			e.groups++
		}
	}
	n, split := len(e.q.Aggs), len(ports)
	for i := range e.q.Aggs {
		a, f := &e.q.Aggs[i], &e.ops[i]
		switch {
		case a.Op == OpCount:
			for _, p := range ports {
				e.aggs[int(p)*n+i].n++
			}
		case a.Op == OpSum && f.ival != nil:
			v := f.intValue(sc, o, split)
			for _, p := range ports {
				e.aggs[int(p)*n+i].n += v
			}
		default:
			for _, p := range ports {
				e.observeAgg(a, f, &e.aggs[int(p)*n+i], sc, o, split)
			}
		}
	}
}

// observeAgg folds one scan row into one aggregate's state; f is a.Field
// resolved.
func (e *Executor) observeAgg(a *Agg, f *operand, st *aggState, sc *core.Scan, o *enrich.Origin, portSplit int) {
	switch a.Op {
	case OpCount:
		st.n++
	case OpSum:
		if f.ival != nil {
			st.n += f.intValue(sc, o, portSplit)
		} else {
			st.f += f.fval(sc, o)
		}
	case OpQuantile:
		if st.ext == nil {
			st.ext = &aggExt{}
		}
		samples := st.ext.samples
		if len(samples) == cap(samples) {
			// Double. append grows a large slice by a quarter at a time,
			// which for a decade-sized group allocates five times its
			// final size in all; doubling allocates twice.
			samples = float64s.grow(samples, max(len(samples), 16))
		}
		st.ext.samples = append(samples, f.numValue(sc, o, portSplit))
	default: // keyed: count_distinct, approx_distinct, top_k
		if st.ext == nil {
			st.ext = &aggExt{}
			switch a.Op {
			case OpCountDistinct:
				st.ext.set.drawn = e.setMult
			case OpApproxDistinct:
				st.ext.hll = sketch.NewHyperLogLog()
			case OpTopK:
				st.ext.topk = sketch.NewTopK(topKCapacity(a.K))
			}
		}
		if a.Field == FieldPort {
			for _, p := range sc.Ports {
				st.ext.addKey(a.Op, uint64(p))
			}
		} else if o != nil || !f.needsOrigin() { // an origin-less scan has no origin value
			st.ext.addKey(a.Op, f.value(sc, o))
		}
	}
}

func (x *aggExt) addKey(op AggOp, k uint64) {
	switch op {
	case OpCountDistinct:
		x.set.add(k)
	case OpApproxDistinct:
		x.hll.Add(k)
	case OpTopK:
		x.topk.Add(k)
	}
}

// Merge folds another partial (built from the same Query) into e, in stream
// order: counts and sums add, distinct sets union, HLL registers max, top-k
// trackers merge under the Space-Saving bound, quantile samples concatenate.
// It gives o's buffers back and leaves o spent, whether or not e took
// anything from it.
func (e *Executor) Merge(o *Executor) {
	defer o.release()
	if e.err != nil {
		return
	}
	if o.err != nil {
		e.err = o.err
		return
	}
	e.matched += o.matched
	if e.q.SelectMode() {
		room := e.selLimit - len(e.scans)
		if room > len(o.scans) {
			room = len(o.scans)
		}
		if room > 0 {
			e.scans = append(e.scans, o.scans[:room]...)
		}
		return
	}
	// The two dictionaries numbered their strings independently: translate
	// o's ids into e's once, then re-key o's groups through the table.
	remap := make([]uint32, len(o.dict.strs))
	for id, s := range o.dict.strs {
		remap[id] = e.dict.id(s)
	}
	n := len(e.q.Aggs)
	o.eachGroup(func(og int, key groupKey) bool {
		for i, f := range e.q.GroupBy {
			if f.stringValued() {
				key.set(i, remap[key.get(i)])
			}
		}
		g, ok := e.groupOf(&key)
		if !ok {
			return false
		}
		for i := 0; i < n; i++ {
			mergeAgg(&e.aggs[g*n+i], &o.aggs[og*n+i])
		}
		return true
	})
}

// mergeAgg folds src into dst, which may be a group's just-opened zero state.
// An extension dst adopts leaves src, so that src's release gives back only
// what dst did not take.
func mergeAgg(dst, src *aggState) {
	dst.n += src.n
	dst.f += src.f
	if src.ext == nil {
		return
	}
	if dst.ext == nil {
		dst.ext, src.ext = src.ext, nil
		return
	}
	d, s := dst.ext, src.ext
	d.set.union(&s.set)
	if s.hll != nil {
		d.hll.Merge(s.hll)
	}
	if s.topk != nil {
		d.topk.Merge(s.topk)
	}
	d.samples = append(float64s.grow(d.samples, len(s.samples)), s.samples...)
}

// giveStates gives back a states buffer the executor has moved out of: the
// extension pointers copied out of it are cleared first, when there can be
// any, so that the free list keeps none alive.
func (e *Executor) giveStates(b []aggState) {
	if e.extended {
		clear(b[:cap(b)])
	}
	states.give(b)
}

// errSpent is a spent executor's error: Finish or Merge gave its buffers
// back, and another query may own them now.
var errSpent = errors.New("query: executor used after Finish or Merge")

// release gives the executor's buffers back to the free lists — every
// distinct set's slots and quantile sample array, then the table — and
// leaves it spent: Observe does nothing, Merge takes nothing from it and
// Finish fails. A second release finds nothing to give. A select-mode
// executor's rows belong to its result and stay.
func (e *Executor) release() {
	e.err = errSpent
	if e.extended {
		for i := range e.aggs {
			if x := e.aggs[i].ext; x != nil {
				uint64s.give(x.set.slots)
				float64s.give(x.samples)
				x.set.slots, x.samples = nil, nil
				e.aggs[i].ext = nil
			}
		}
	}
	int32s.give(e.slots)
	keys.give(e.keys)
	states.give(e.aggs)
	uint64s.give(e.present)
	e.slots, e.keys, e.aggs, e.present = nil, nil, nil, nil
}

// KeyVal is one rendered group-key coordinate.
type KeyVal struct {
	// Field is the group-by dimension.
	Field Field `json:"field"`
	// Num is the raw integer value (0 for string-keyed fields).
	Num uint64 `json:"num"`
	// Str is the display form.
	Str string `json:"str"`
}

// TopItem is one ranked heavy hitter.
type TopItem struct {
	// Key is the display form of the item.
	Key string `json:"key"`
	// Num is the raw integer value.
	Num uint64 `json:"num"`
	// Count is the estimated frequency (an upper bound).
	Count uint64 `json:"count"`
	// Err bounds the overestimate: true count >= Count - Err.
	Err uint64 `json:"err,omitempty"`
}

// AggValue is one finished aggregate of one row.
type AggValue struct {
	// Op and Field echo the request.
	Op    AggOp `json:"-"`
	Field Field `json:"-"`
	// Count holds count / count_distinct / approx_distinct results.
	Count uint64 `json:"count,omitempty"`
	// Int holds exact integer sums; Float holds float sums.
	Int   uint64  `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
	IsInt bool    `json:"-"`
	// Top holds the top_k ranking.
	Top []TopItem `json:"top,omitempty"`
	// Qs and Vals hold the requested quantiles and their values, aligned.
	Qs   []float64 `json:"qs,omitempty"`
	Vals []float64 `json:"vals,omitempty"`
}

// Row is one result row of an aggregate query.
type Row struct {
	// Key holds one entry per group_by field (empty for the global group).
	Key []KeyVal `json:"key"`
	// Aggs holds one entry per requested aggregate, in request order.
	Aggs []AggValue `json:"aggs"`
}

// Result is a finished query.
type Result struct {
	// Matched counts scans that passed the filter (across all partials,
	// before any limit).
	Matched uint64
	// Scans holds select-mode rows, up to the limit.
	Scans []ScanRec
	// Truncated reports select-mode row loss to the limit.
	Truncated bool
	// Rows holds aggregate-mode rows, sorted, up to the limit.
	Rows []Row
	// TotalRows counts groups before the limit.
	TotalRows int
}

// Finish renders the accumulated state into memory of the result's own,
// gives the executor's buffers back and leaves it spent: a second Finish
// fails.
//
// Rows are ordered before they exist: group numbers are sorted by (first
// aggregate's scalar descending, coordinates ascending) or by coordinates
// alone — a total order either way, distinct groups having distinct
// coordinates — and only the rows that survive the limit are rendered.
func (e *Executor) Finish() (*Result, error) {
	defer e.release()
	if e.err != nil {
		return nil, e.err
	}
	res := &Result{Matched: e.matched}
	if e.q.SelectMode() {
		res.Scans = e.scans
		res.Truncated = uint64(len(e.scans)) < e.matched
		return res, nil
	}
	n := len(e.q.Aggs)
	order := int32s.take(e.groups)[:0]
	defer func() { int32s.give(order) }()
	e.eachGroup(func(g int, _ groupKey) bool {
		order = append(order, int32(g))
		return true
	})
	before := func(a, b int32) int { return e.compareKeys(e.keyOf(a), e.keyOf(b)) }
	if e.q.Order != OrderKey && n > 0 {
		// Scalars by rank, sized by the groups present: a direct table's
		// group numbers run to 65 535 however few of them exist.
		scalars := float64s.take(len(order))
		defer float64s.give(scalars)
		for r, g := range order {
			scalars[r] = scalar(&e.q.Aggs[0], &e.aggs[int(g)*n])
		}
		rank, below := e.ranks()
		defer int32s.give(below)
		before = func(a, b int32) int {
			if c := cmp.Compare(scalars[rank(b)], scalars[rank(a)]); c != 0 {
				return c
			}
			return e.compareKeys(e.keyOf(a), e.keyOf(b))
		}
	}
	res.TotalRows = len(order)
	limit := len(order)
	if e.q.Limit > 0 && e.q.Limit < limit {
		limit = e.q.Limit
	}
	order = firstSorted(order, limit, before)
	res.Rows = make([]Row, len(order))
	for r, g := range order {
		row := Row{Key: make([]KeyVal, len(e.q.GroupBy)), Aggs: make([]AggValue, n)}
		key := e.keyOf(g)
		for i, f := range e.q.GroupBy {
			row.Key[i] = e.renderCoord(f, key.get(i))
		}
		for i := range row.Aggs {
			row.Aggs[i] = finishAgg(&e.q.Aggs[i], &e.aggs[int(g)*n+i])
		}
		res.Rows[r] = row
	}
	return res, nil
}

// firstSorted returns the n elements of xs that sort first under cmp, sorted:
// xs[:n] of a fully sorted xs, without sorting the rest. It keeps a max-heap
// of the n best seen so far in xs[:n] and lets each later element displace
// the heap's worst, so a top-10 of 65 536 groups costs one comparison per
// group and a ten-element sort.
func firstSorted(xs []int32, n int, cmp func(a, b int32) int) []int32 {
	h := xs[:n]
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && cmp(h[c+1], h[c]) > 0 {
				c++
			}
			if cmp(h[c], h[i]) <= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	if n < len(xs) {
		for i := n/2 - 1; i >= 0; i-- {
			down(i)
		}
		for _, x := range xs[n:] {
			if cmp(x, h[0]) < 0 {
				h[0] = x
				down(0)
			}
		}
	}
	slices.SortFunc(h, cmp)
	return h
}

func (e *Executor) renderCoord(f Field, c uint32) KeyVal {
	if f.stringValued() {
		return KeyVal{Field: f, Str: e.dict.strs[c]}
	}
	return KeyVal{Field: f, Num: uint64(c), Str: f.def().render(uint64(c))}
}

// sortedSamples sorts a quantile aggregate's samples in place (a repeat
// call finds them sorted, which the sort detects in one pass).
func (st *aggState) sortedSamples() []float64 {
	if st.ext == nil {
		return nil
	}
	sort.Float64s(st.ext.samples)
	return st.ext.samples
}

// scalar is the value OrderDefault ranks a group by: its first aggregate as
// one number (a sum, a count, the first requested quantile, the total of the
// top-k counts).
func scalar(a *Agg, st *aggState) float64 {
	switch a.Op {
	case OpSum:
		if a.Field.def().ival != nil {
			return float64(st.n)
		}
		return st.f
	case OpQuantile:
		return stats.QuantileSorted(st.sortedSamples(), a.Qs[0])
	case OpTopK:
		var t uint64
		if st.ext != nil {
			for _, it := range st.ext.topk.Top(a.K) {
				t += it.Count
			}
		}
		return float64(t)
	default:
		return float64(finishAgg(a, st).Count)
	}
}

func finishAgg(a *Agg, st *aggState) AggValue {
	v := AggValue{Op: a.Op, Field: a.Field}
	switch a.Op {
	case OpCount:
		v.Count = st.n
	case OpSum:
		if a.Field.def().ival != nil {
			v.Int = st.n
			v.IsInt = true
		} else {
			v.Float = st.f
		}
	case OpCountDistinct:
		if st.ext != nil {
			v.Count = uint64(st.ext.set.len())
		}
	case OpApproxDistinct:
		if st.ext != nil {
			v.Count = st.ext.hll.Estimate()
		}
	case OpTopK:
		if st.ext != nil {
			for _, it := range st.ext.topk.Top(a.K) {
				v.Top = append(v.Top, TopItem{
					Key: a.Field.def().render(it.Key), Num: it.Key,
					Count: it.Count, Err: it.Err,
				})
			}
		}
	case OpQuantile:
		v.Qs = a.Qs
		v.Vals = make([]float64, len(a.Qs))
		// One sort serves every requested quantile; the shared stats
		// interpolation keeps the engine bit-identical with the batch
		// analyses.
		samples := st.sortedSamples()
		for i, q := range a.Qs {
			v.Vals[i] = stats.QuantileSorted(samples, q)
		}
	}
	return v
}

// compareKeys orders group keys: numeric coordinates by value, string
// coordinates lexically, coordinate by coordinate.
func (e *Executor) compareKeys(a, b groupKey) int {
	for i, f := range e.q.GroupBy {
		ca, cb := a.get(i), b.get(i)
		if ca == cb {
			continue
		}
		if f.stringValued() {
			return cmp.Compare(e.dict.strs[ca], e.dict.strs[cb])
		}
		return cmp.Compare(ca, cb)
	}
	return 0
}

// distinctSet is count_distinct's exact set of 64-bit keys: open-addressed
// with linear probing, a multiplicative hash whose top bits pick the home
// slot, at most ¾ full, doubling when an insert takes it past that. A zero
// slot is empty, so the key 0 is a flag of its own. Nothing is ever removed.
// Against a map[uint64]struct{}, an insert is one multiply and, mostly, one
// cache line, and a key costs one 8-byte slot at ⅜ to ¾ load.
//
// The multiplier starts as the Fibonacci constant, under which the key sets
// a count_distinct meets that are not random — consecutive sources, shared
// suffixes — land closer to home than random keys do
// (TestDistinctSetCraftedRuns). Because it is fixed, keys can be crafted to
// share one probe run under it, which would make a query over such sources
// quadratic. So an insert that walks a run longer than maxSetRun, longer
// than any such set was measured to, rehashes the set, at its size, under
// the multiplier its executor drew (setMultiplier), which no one can craft
// keys against. Nothing a set answers depends on the multiplier, and union
// re-inserts, so sets under different multipliers merge exactly.
type distinctSet struct {
	slots []uint64 // a power of two long, or nil until the first nonzero key
	n     int      // nonzero keys in slots
	zero  bool     // the set holds 0
	shift uint8    // 64 − log2(len(slots))
	mult  uint64   // odd: fibonacci, or drawn once a run passed maxSetRun
	drawn uint64   // the executor's drawn multiplier; 0 keeps fibonacci
}

const (
	minSetSlots = 16
	fibonacci   = 0x9e3779b97f4a7c15 // 2^64 / φ, odd
	// maxSetRun is the longest probe run an insert walks under the
	// Fibonacci constant before the set moves to its drawn multiplier: above
	// the 96 slots an insert of the worst structured set of
	// TestDistinctSetCraftedRuns walks just before a doubling (multiples of
	// 2^33), and a bound on what crafted keys cost: one such run per key
	// until the move, then none.
	maxSetRun = 128
)

func (s *distinctSet) home(k uint64) int { return int(k * s.mult >> s.shift) }

func (s *distinctSet) add(k uint64) {
	if k == 0 {
		s.zero = true
		return
	}
	if s.slots == nil {
		s.resize(minSetSlots)
	}
	mask := len(s.slots) - 1
	for i, run := s.home(k), 0; ; i, run = (i+1)&mask, run+1 {
		switch s.slots[i] {
		case k:
			return
		case 0:
			s.slots[i] = k
			if s.n++; 4*s.n > 3*len(s.slots) {
				s.resize(2 * len(s.slots))
			} else if run > maxSetRun && s.drawn != 0 && s.mult != s.drawn {
				s.mult = s.drawn
				s.resize(len(s.slots))
			}
			return
		}
	}
}

// setMultiplier draws odd multipliers from random until one spreads runs of
// consecutive keys evenly: the screen of the detector's source table
// (internal/core srcMultiplier), on a/2^64 — partial quotients of its
// continued fraction at most 16 up to convergents of 2^24, about one odd
// multiplier in five.
func setMultiplier(random func() uint64) uint64 {
	for {
		if a := random() | 1; spreadsKeys(a) {
			return a
		}
	}
}

func spreadsKeys(a uint64) bool {
	if a == 1 {
		return false // its first partial quotient, 2^64, does not fit
	}
	// The first step divides 2^64, which takes two words.
	c, rem := bits.Div64(1, 0, a)
	num, den := rem, a
	for q, qPrev := c, uint64(1); ; {
		if c > 16 {
			return false
		}
		if num == 0 || q >= 1<<24 {
			return true
		}
		c = den / num
		den, num = num, den%num
		q, qPrev = c*q+qPrev, q
	}
}

// resize moves every key into a new table of size slots, under s.mult, the
// Fibonacci constant until it is set.
func (s *distinctSet) resize(size int) {
	if s.mult == 0 {
		s.mult = fibonacci
	}
	old := s.slots
	s.slots = uint64s.take(size)
	clear(s.slots)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := s.home(k)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = k
	}
	uint64s.give(old)
}

// union adds every key of o to s.
func (s *distinctSet) union(o *distinctSet) {
	s.zero = s.zero || o.zero
	for _, k := range o.slots {
		if k != 0 {
			s.add(k)
		}
	}
}

// len is the number of distinct keys.
func (s *distinctSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}
