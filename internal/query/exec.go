package query

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"github.com/synscan/synscan/internal/archive"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/enrich"
	"github.com/synscan/synscan/internal/sketch"
	"github.com/synscan/synscan/internal/stats"
)

// defaultSelectLimit caps select-mode responses when the request names none,
// matching the legacy /v1/scans default.
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
// A group is identified by a packed fixed-size key (see groupKey), found
// through one hash table from key to group number (see groupOf), and its
// aggregate states sit in one flat slice — observing a scan into groups that
// already exist allocates nothing, however many ports it fans out over.
//
// Not safe for concurrent use; run one Executor per goroutine and Merge.
type Executor struct {
	q   *Query
	err error

	// Select mode.
	selLimit int
	scans    []ScanRec

	// Aggregate mode.
	matched uint64
	group   []operand  // q.GroupBy, resolved
	ops     []operand  // q.Aggs' fields, resolved
	portAt  int        // index of FieldPort in q.GroupBy, or -1
	slots   []int32    // the group table: group number + 1 by key hash, 0 = empty
	keys    []groupKey // by group number: first-seen stream order
	aggs    []aggState // group g's aggregate i at g*len(q.Aggs)+i
	dict    dictionary // country/org coordinates
	years   archive.YearCache
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
	set     map[uint64]struct{}
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
	e.slots = make([]int32, minGroupSlots)
	for i, f := range q.GroupBy {
		if f == FieldPort {
			e.portAt = i
		}
		e.group = append(e.group, e.resolve(f, true))
	}
	for _, a := range q.Aggs {
		e.ops = append(e.ops, e.resolve(a.Field, false))
	}
	return e
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
// Observe only aggregates. o is nil when the source carries no origins.
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
			e.scans = append(e.scans, ScanRec{Scan: sc, Origin: op})
		}
		return
	}
	var key groupKey
	for i := range e.group {
		g := &e.group[i]
		if o == nil && g.needsOrigin() {
			return // an origin group-by over an origin-less scan
		}
		if g.value != nil {
			key.set(i, uint32(g.value(sc, o)))
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

// minGroupSlots is the group table's initial size; sizes are powers of two.
const minGroupSlots = 16

// slotOf probes for key: the slot holding its group, or the empty slot where
// it belongs. The table is open-addressed with linear probing and at most
// half full, and holds only group numbers — the keys stay in e.keys, which a
// sweep's consecutive ports walk in order once their groups exist. Against
// a map[groupKey]int32 this is one random memory access per row instead of
// three, on the per-(scan, port) path that dominates port-grouped queries.
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
// means the group cap was hit and e.err is set.
func (e *Executor) groupOf(key *groupKey) (int, bool) {
	slot := e.slotOf(key)
	if g := e.slots[slot]; g != 0 {
		return int(g - 1), true
	}
	if len(e.keys) >= maxGroups {
		e.err = errf("query exceeds %d groups; add a filter or coarser grouping", maxGroups)
		return 0, false
	}
	g, n := len(e.keys), len(e.q.Aggs)
	if 2*(g+1) > len(e.slots) {
		// Keys and states grow in step with the table, to exactly the groups
		// it can hold, so a growing executor copies each of them once per
		// doubling and never between.
		e.slots = make([]int32, 2*len(e.slots))
		for g, k := range e.keys {
			e.slots[e.slotOf(&k)] = int32(g + 1)
		}
		slot = e.slotOf(key)
		room := len(e.slots)/2 - g
		e.keys = slices.Grow(e.keys, room)
		e.aggs = slices.Grow(e.aggs, room*n)
	}
	e.slots[slot] = int32(g + 1)
	e.keys = append(e.keys, *key)
	for i := 0; i < n; i++ {
		e.aggs = append(e.aggs, aggState{})
	}
	return g, true
}

// observeRow folds one scan row into key's group.
func (e *Executor) observeRow(key *groupKey, sc *core.Scan, o *enrich.Origin, portSplit int) bool {
	g, ok := e.groupOf(key)
	if !ok {
		return false
	}
	n := len(e.q.Aggs)
	states := e.aggs[g*n : g*n+n]
	for i := range states {
		e.observeAgg(&e.q.Aggs[i], &e.ops[i], &states[i], sc, o, portSplit)
	}
	return true
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
			samples = slices.Grow(samples, max(len(samples), 16))
		}
		st.ext.samples = append(samples, f.numValue(sc, o, portSplit))
	default: // keyed: count_distinct, approx_distinct, top_k
		if st.ext == nil {
			st.ext = &aggExt{}
			switch a.Op {
			case OpCountDistinct:
				st.ext.set = make(map[uint64]struct{})
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
		x.set[k] = struct{}{}
	case OpApproxDistinct:
		x.hll.Add(k)
	case OpTopK:
		x.topk.Add(k)
	}
}

// Merge folds another partial (built from the same Query) into e, in stream
// order: counts and sums add, distinct sets union, HLL registers max, top-k
// trackers merge under the Space-Saving bound, quantile samples concatenate.
// The other executor must not be used afterwards.
func (e *Executor) Merge(o *Executor) {
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
	for og, key := range o.keys {
		for i, f := range e.q.GroupBy {
			if f.stringValued() {
				key.set(i, remap[key.get(i)])
			}
		}
		g, ok := e.groupOf(&key)
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			mergeAgg(&e.aggs[g*n+i], &o.aggs[og*n+i])
		}
	}
}

// mergeAgg folds src into dst, which may be a group's just-opened zero state.
func mergeAgg(dst, src *aggState) {
	dst.n += src.n
	dst.f += src.f
	if src.ext == nil {
		return
	}
	if dst.ext == nil {
		dst.ext = src.ext
		return
	}
	d, s := dst.ext, src.ext
	for k := range s.set {
		d.set[k] = struct{}{}
	}
	if s.hll != nil {
		d.hll.Merge(s.hll)
	}
	if s.topk != nil {
		d.topk.Merge(s.topk)
	}
	d.samples = append(d.samples, s.samples...)
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

// Finish renders the accumulated state. The executor must not be used
// afterwards.
//
// Rows are ordered before they exist: group numbers are sorted by (first
// aggregate's scalar descending, coordinates ascending) or by coordinates
// alone — a total order either way, distinct groups having distinct
// coordinates — and only the rows that survive the limit are rendered.
func (e *Executor) Finish() (*Result, error) {
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
	order := make([]int32, len(e.keys))
	for g := range order {
		order[g] = int32(g)
	}
	before := func(a, b int32) int { return e.compareKeys(e.keys[a], e.keys[b]) }
	if e.q.Order != OrderKey && n > 0 {
		scalars := make([]float64, len(e.keys))
		for g := range scalars {
			scalars[g] = scalar(&e.q.Aggs[0], &e.aggs[g*n])
		}
		before = func(a, b int32) int {
			if c := cmp.Compare(scalars[b], scalars[a]); c != 0 {
				return c
			}
			return e.compareKeys(e.keys[a], e.keys[b])
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
		for i, f := range e.q.GroupBy {
			row.Key[i] = e.renderCoord(f, e.keys[g].get(i))
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
			v.Count = uint64(len(st.ext.set))
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
