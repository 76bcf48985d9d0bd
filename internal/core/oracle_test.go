package core

import (
	"slices"
	"testing"
	"time"

	"github.com/synscan/synscan/internal/packet"
)

// checkAgainstProbeStream recomputes what the per-flow sets feed into each
// scan straight from the probes, with Go maps and none of flow.absorb: a
// source's scans, in the order they were emitted, partition that source's
// probes in arrival order, Packets at a time. For each such run the
// reference derives [Start, End], the distinct destinations, the
// destinations that saw both phases, the two-phase verdict and the ascending
// ports, and the emitted scan must agree. NaiveDetector shares flow.absorb
// with Detector, so it cannot play this part.
func checkAgainstProbeStream(t *testing.T, cfg Config, stream []packet.Probe, scans []*Scan) {
	t.Helper()
	bySrc := map[uint32][]*packet.Probe{}
	for i := range stream {
		p := &stream[i]
		bySrc[p.Src] = append(bySrc[p.Src], p)
	}
	minLinked := max(cfg.MinLinkedDsts, 1)
	for _, s := range scans {
		rest := bySrc[s.Src]
		if uint64(len(rest)) < s.Packets {
			t.Fatalf("source %#x: scan of %d packets, %d probes left", s.Src, s.Packets, len(rest))
		}
		run := rest[:s.Packets]
		bySrc[s.Src] = rest[s.Packets:]

		dsts := map[uint32]uint8{}
		ports := map[uint16]struct{}{}
		end := run[0].Time
		for _, p := range run {
			if p.IsTCP() && p.Flags&packet.FlagSYN == 0 {
				dsts[p.Dst] |= dstHandshake
			} else {
				dsts[p.Dst] |= dstScout
			}
			ports[p.DstPort] = struct{}{}
			end = max(end, p.Time)
		}
		linked := 0
		for _, bits := range dsts {
			if bits == dstLinked {
				linked++
			}
		}
		wantPorts := make([]uint16, 0, len(ports))
		for p := range ports {
			wantPorts = append(wantPorts, p)
		}
		slices.Sort(wantPorts)

		if s.Start != run[0].Time || s.End != end {
			t.Fatalf("source %#x: scan [%d, %d], its probes [%d, %d]", s.Src, s.Start, s.End, run[0].Time, end)
		}
		if s.DistinctDsts != len(dsts) || s.LinkedDsts != linked || s.TwoPhase != (linked >= minLinked) {
			t.Fatalf("source %#x [%d, %d]: dsts %d linked %d two-phase %v, reference %d / %d / %v",
				s.Src, s.Start, s.End, s.DistinctDsts, s.LinkedDsts, s.TwoPhase, len(dsts), linked, linked >= minLinked)
		}
		if !slices.Equal(s.Ports, wantPorts) {
			t.Fatalf("source %#x [%d, %d]: %d ports, reference %d: %v… against %v…",
				s.Src, s.Start, s.End, len(s.Ports), len(wantPorts), s.Ports[:min(len(s.Ports), 12)], wantPorts[:min(len(wantPorts), 12)])
		}
	}
	for src, rest := range bySrc {
		if len(rest) != 0 {
			t.Fatalf("source %#x: %d probes in no scan", src, len(rest))
		}
	}
}

// makeTwoPhaseStream is what a reactive telescope admits from two-phase
// scanners. Each source scouts forty destinations with SYNs, pass after pass;
// on later passes two sources in three come back to every fifth destination
// with an ACK and a PSH-ACK carrying a payload. On the first pass some
// handshake segments arrive before their scout SYN, and some destinations
// only ever see a handshake. Every fourth source is a plain one-phase
// scanner. Sources return after an expiry gap, so recycled flows link again.
func makeTwoPhaseStream() []packet.Probe {
	var stream []packet.Probe
	tm := int64(0)
	emit := func(src, dst uint32, port uint16, flags uint8, payload []byte) {
		tm += int64(time.Millisecond)
		stream = append(stream, packet.Probe{
			Time: tm, Src: src, Dst: dst, DstPort: port, Seq: uint32(tm), Flags: flags, Payload: payload,
		})
	}
	for round := 0; round < 3; round++ {
		for i := uint32(0); i < 160; i++ {
			pass, k := i/40, i%40
			for src := uint32(1); src <= 12; src++ {
				dst := 0xC6336400 + k*src
				reactive := src%4 != 0
				if reactive && pass == 0 && k%7 == 2 {
					emit(src, dst, 443, packet.FlagACK, nil) // before its SYN
				}
				if reactive && pass == 0 && k%9 == 4 {
					emit(src, dst+0x10000, 443, packet.FlagACK, nil) // never scouted
				}
				emit(src, dst, uint16(443+k%3), packet.FlagSYN, nil)
				if reactive && pass > 0 && k%5 == 3 && src%3 != 0 {
					emit(src, dst, 443, packet.FlagACK, nil)
					emit(src, dst, 443, packet.FlagPSH|packet.FlagACK, []byte("GET / HTTP/1.1\r\n"))
				}
			}
		}
		tm += 2 * int64(time.Hour)
	}
	return stream
}

// makeSweepStream mixes the flows that leave the sets' small regime — a full
// 65 536-port vertical sweep and a 5 000-destination campaign, each with
// repeats, and a nine-port flow without — with few-port background flows, then brings every source back
// after an expiry gap so the grown table and the spilled bitmap are reused by
// whichever flow is opened next.
func makeSweepStream() []packet.Probe {
	var stream []packet.Probe
	tm := int64(0)
	emit := func(src, dst uint32, port uint16) {
		tm += int64(50 * time.Microsecond)
		stream = append(stream, packet.Probe{Time: tm, Src: src, Dst: dst, DstPort: port, Seq: uint32(tm), Flags: packet.FlagSYN})
	}
	for round := uint32(0); round < 2; round++ {
		for i := uint32(0); i < 1<<16+500; i++ {
			emit(1, 0x0A000000+i%3, uint16(i*40503)) // odd multiplier: all 65 536 ports, then repeats
			if i < 5600 {
				emit(2, 0x0B000000+(i%5000)*257, uint16(80+round))
			}
			if i < inlinePorts+1 {
				emit(3, 0x0A000000, uint16(1000*(i+1))) // spills on its last probe
			}
			if i%16 == 0 {
				emit(100+i/16%300, 0x0A000000+i%7, uint16(20+i%3))
			}
		}
		tm += 2 * int64(time.Hour)
	}
	return stream
}

// TestSetsAgainstProbeStream is the independent check of the per-flow sets:
// every scan the detector emits is recomputed from the probe stream by
// checkAgainstProbeStream.
func TestSetsAgainstProbeStream(t *testing.T) {
	streams := map[string][]packet.Probe{
		"reordered": batchCorpora()["reordered"],
		"two-phase": makeTwoPhaseStream(),
		"sweep":     makeSweepStream(),
	}
	for name, stream := range streams {
		for _, minLinked := range []int{0, 10} {
			cfg := Config{TelescopeSize: testTelescopeSize, MinLinkedDsts: minLinked}
			scans, counts := runSequential(t, cfg, stream)
			checkAgainstProbeStream(t, cfg, stream, scans)

			var linked, twoPhase, spilled, large int
			for _, s := range scans {
				linked += s.LinkedDsts
				if s.TwoPhase {
					twoPhase++
				}
				if len(s.Ports) > inlinePorts {
					spilled++
				}
				if s.DistinctDsts > 4096 {
					large++
				}
			}
			t.Logf("%s, MinLinkedDsts %d: %d scans (%d opened), %d linked destinations, %d two-phase, %d spilled port sets, %d over 4096 destinations",
				name, minLinked, len(scans), counts[0], linked, twoPhase, spilled, large)
			switch name {
			case "two-phase":
				if linked == 0 || twoPhase == 0 || twoPhase == len(scans) {
					t.Errorf("two-phase stream: %d linked destinations, %d of %d scans two-phase", linked, twoPhase, len(scans))
				}
			case "sweep":
				if spilled != 4 || large != 2 {
					t.Errorf("sweep stream: %d spilled port sets, %d scans over 4096 destinations, want 4 and 2", spilled, large)
				}
			}
		}
	}
}
