package core

import (
	"testing"
	"time"
	"unsafe"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/packet"
)

// maxRecycledFlowBytes is the most an idle recycled flow may hold: its struct
// and a destination table of minDstSlots slots.
const maxRecycledFlowBytes = int(unsafe.Sizeof(flow{})) + 8*minDstSlots

// maxPooledTableBytes is the most the table pool may hold: maxPooledTables
// tables of each power-of-two size from minDstSlots to maxRecycledSlots.
const maxPooledTableBytes = maxPooledTables * (2*maxRecycledSlots - minDstSlots) * 8

// idleBytes is what the detector holds for flows that are not open: every
// free-list flow with its destination table, the pooled destination tables
// and the pooled port bitmaps.
func (d *Detector) idleBytes(t *testing.T) int {
	total := len(d.bitmaps.idle) * int(unsafe.Sizeof(portBitmap{}))
	for _, idle := range d.tables.idle {
		for _, s := range idle {
			total += 8 * cap(s.slots)
		}
	}
	d.tables.check(t)
	for f := d.free; f != nil; f = f.next {
		one := int(unsafe.Sizeof(*f)) + 8*cap(f.dsts.slots)
		if f.ports.bits != nil {
			t.Errorf("a recycled flow kept its port bitmap")
		}
		if one > maxRecycledFlowBytes {
			t.Errorf("a recycled flow holds %d B, bound %d", one, maxRecycledFlowBytes)
		}
		total += one
	}
	return total
}

// TestRecycleBounds: the idle memory of a detector is bounded by the
// constants beside maxFreeFlows whatever traffic came before. A 65 536-port
// sweep, a 50 000-destination campaign and twenty concurrent nine-port flows
// close; afterwards no flow keeps more than an eight-slot table, the pool
// keeps the tables the campaign outgrew but not its 1 MiB one, no more than
// maxPooledBitmaps bitmaps are retained, and ten thousand three-packet flows
// that recycle through the same free list pay nothing for what the big flows
// left: two allocations each, the Scan and its Ports.
func TestRecycleBounds(t *testing.T) {
	if size := unsafe.Sizeof(flow{}); size > 280 {
		t.Errorf("a flow is %d B; the bound stated beside maxFreeFlows says 280", size)
	}
	if bound := maxFreeFlows*(280+8*minDstSlots) + maxPooledTableBytes + maxPooledBitmaps*int(unsafe.Sizeof(portBitmap{})); float64(bound) > 6.6*(1<<20) {
		t.Errorf("the stated idle bound is %.2f MiB, not ≈ 6.5", float64(bound)/(1<<20))
	}
	d := newSequentialDetector(Config{TelescopeSize: testTelescopeSize}, nil, nil)
	tm := int64(0)
	ingest := func(src, dst uint32, port uint16) {
		tm += int64(time.Microsecond)
		d.Ingest(&packet.Probe{Time: tm, Src: src, Dst: dst, DstPort: port, Flags: packet.FlagSYN})
	}
	for i := uint32(0); i < 1<<16; i++ {
		ingest(1, 0x0A000001, uint16(i))
	}
	for i := uint32(0); i < 50000; i++ {
		ingest(2, 0x0B000000+i, 443)
	}
	for i := uint32(0); i <= inlinePorts; i++ {
		for src := uint32(100); src < 120; src++ {
			ingest(src, 0x0A000002, uint16(8000+i))
		}
	}
	if got := len(d.flows.find(2).f.dsts.slots); got != 1<<17 {
		t.Fatalf("the 50 000-destination flow holds %d slots, want %d", got, 1<<17)
	}
	tm += 2 * DefaultExpiry
	d.AdvanceTime(tm)
	if d.ActiveFlows() != 0 || d.nfree != 22 {
		t.Fatalf("%d flows open, %d recycled, want 0 and 22", d.ActiveFlows(), d.nfree)
	}
	if got := len(d.bitmaps.idle); got != maxPooledBitmaps {
		t.Errorf("%d bitmaps pooled after 21 spilled flows closed, want %d", got, maxPooledBitmaps)
	}
	for k, idle := range d.tables.idle[1:] { // the eight-slot one went to flow 100
		if len(idle) != 1 {
			t.Errorf("%d tables of %d slots pooled, want the one the campaign outgrew", len(idle), 2*minDstSlots<<k)
		}
	}
	bound := d.nfree*maxRecycledFlowBytes + maxPooledTableBytes + maxPooledBitmaps*int(unsafe.Sizeof(portBitmap{}))
	if got := d.idleBytes(t); got > bound {
		t.Errorf("idle state holds %d B, bound %d", got, bound)
	}

	src := uint32(1000)
	small := func() {
		src++
		for i := uint32(0); i < 3; i++ {
			ingest(src, 0x0A000003+i, 22)
		}
		tm += 2 * DefaultExpiry // the next flow's first probe closes this one
	}
	for i := 0; i < 10000; i++ {
		small()
	}
	allocs, bytes := alloctest.Measure(1000, small)
	if allocs > 2 || bytes > 512 {
		t.Errorf("a three-packet flow after the big ones costs %.2f allocations, %.0f B; want the Scan and its Ports", allocs, bytes)
	}
	if got := d.idleBytes(t); got > bound {
		t.Errorf("idle state holds %d B after the small flows, bound %d", got, bound)
	}
}
