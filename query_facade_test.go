package synscan

import (
	"context"
	"testing"

	"github.com/synscan/synscan/internal/query"
)

// TestFacadeQueryBuilder: the re-exported fluent builder runs one query
// against a simulated year and against the same year written to an archive,
// and both paths agree — the in-memory source and the zone-map-pushdown
// reader compute identical exact aggregates.
func TestFacadeQueryBuilder(t *testing.T) {
	yd, _ := facadeData(t)

	q, err := NewQuery().
		Qualified(true).
		GroupBy(FieldTool).
		Count().
		Sum(FieldPackets).
		OrderByKey().
		Build()
	if err != nil {
		t.Fatal(err)
	}

	mem, err := RunQuery(context.Background(), q, YearSource(yd))
	if err != nil {
		t.Fatal(err)
	}
	if mem.Matched == 0 || len(mem.Rows) == 0 {
		t.Fatalf("empty result: matched=%d rows=%d", mem.Matched, len(mem.Rows))
	}

	dir := t.TempDir()
	w, err := OpenSegmentDir(dir, SegmentConfig{
		TelescopeSize: 2048, Origins: true, BlockBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ArchiveYear(w, &yd.Campaigns); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(dir, CatalogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	v := cat.View()
	defer v.Release()

	arc, err := RunQuery(context.Background(), q, v)
	if err != nil {
		t.Fatal(err)
	}
	if arc.Matched != mem.Matched || len(arc.Rows) != len(mem.Rows) {
		t.Fatalf("archive/memory disagree: matched %d vs %d, rows %d vs %d",
			arc.Matched, mem.Matched, len(arc.Rows), len(mem.Rows))
	}
	for i := range mem.Rows {
		m, a := mem.Rows[i], arc.Rows[i]
		if m.Key[0].Num != a.Key[0].Num ||
			m.Aggs[0].Count != a.Aggs[0].Count || m.Aggs[1].Int != a.Aggs[1].Int {
			t.Fatalf("row %d differs: %+v vs %+v", i, m, a)
		}
	}

	// An Or/Not expression through the re-exported constructors.
	nq, err := NewQuery().
		Where(QueryOr(QueryToolIn(ToolZMap), QueryToolIn(ToolMasscan))).
		Where(QueryNot(QueryQualified(false))).
		GroupBy(FieldTool).
		Count().
		OrderByKey().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunQuery(context.Background(), nq, YearSource(yd))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		tl := Tool(row.Key[0].Num)
		if tl != ToolZMap && tl != ToolMasscan {
			t.Fatalf("unexpected tool group %v", tl)
		}
	}

	// ParseQuery accepts the wire form and yields the same canonical key.
	pq, err := ParseQuery([]byte(`{"where":{"field":"qualified","eq":true},
	        "group_by":["tool"],
	        "aggs":[{"op":"count"},{"op":"sum","field":"packets"}],
	        "order_by":"key"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := pq.Canonicalize().Key(); got != q.Key() {
		t.Fatalf("wire form and builder disagree on canonical key:\n%s\n%s",
			got, q.Key())
	}
	if _, err := ParseQuery([]byte(`{"group_by":["nope"]}`)); !IsQueryClientError(err) {
		t.Fatalf("bad field should be a client error, got %v", err)
	}
}

// TestFacadeExportsEveryField walks the query package's field table and fails
// when a row has no constant here: a field a library user cannot name cannot
// be grouped, summed or ranked from the facade at all.
func TestFacadeExportsEveryField(t *testing.T) {
	exported := map[QueryField]bool{
		FieldYear: true, FieldTool: true, FieldPort: true, FieldQualified: true,
		FieldSrc: true, FieldTime: true, FieldRate: true, FieldPackets: true,
		FieldDsts: true, FieldNPorts: true, FieldDuration: true, FieldCoverage: true,
		FieldCountry: true, FieldASN: true, FieldType: true, FieldOrg: true,
		FieldTwoPhase: true, FieldISN: true, FieldLinkedDsts: true,
		FieldHandshakePackets: true, FieldPayloadBytes: true,
	}
	for _, f := range query.Fields() {
		if !exported[f] {
			t.Errorf("field %q has no constant in query_facade.go (add it there and to this list)", f)
		}
	}
	if len(exported) != len(query.Fields()) {
		t.Errorf("facade names %d fields, the table has %d", len(exported), len(query.Fields()))
	}
}
