package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/core"
	"github.com/synscan/synscan/internal/faultinject"
	"github.com/synscan/synscan/internal/obs"
	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/pcap"
	"github.com/synscan/synscan/internal/pcapng"
	"github.com/synscan/synscan/internal/reactive"
	"github.com/synscan/synscan/internal/telescope"
	"github.com/synscan/synscan/internal/workload"
)

var formats = []Format{Pcap, Pcapng, Spool}

const testTelescope = 2048

// accepted simulates one seeded year and returns what its telescope admits,
// in order: pure SYNs from a passive telescope, SYNs plus the phase-two
// segments the responder's SYN-ACKs provoked from a reactive one.
func accepted(t testing.TB, reactiveMode bool) []packet.Probe {
	t.Helper()
	s, err := workload.NewScenario(workload.Config{
		Year: 2021, Seed: 3, Scale: 0.0003, TelescopeSize: testTelescope,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []packet.Probe
	keep := func(p *packet.Probe) {
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		out = append(out, q)
	}
	if !reactiveMode {
		s.Run(func(p *packet.Probe) {
			if s.Telescope.Observe(p) == telescope.Accepted {
				keep(p)
			}
		})
		return out
	}
	rt := reactive.New(s.Telescope, reactive.DefaultPolicy(3))
	s.RunReactive(rt, func(p *packet.Probe, d reactive.Disposition) {
		if d.Reason == telescope.Accepted {
			keep(p)
		}
	})
	return out
}

// render writes probes through a Writer of the given format. Every junkEvery-th
// probe is followed by two records no replay admits — a UDP datagram and a GRE
// packet, which has no transport the decoder knows — so the drop counters have
// something to count; junkEvery 0 writes none.
func render(t testing.TB, format Format, probes []packet.Probe, junkEvery int) (data []byte, junk uint64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, format, testTelescope)
	if err != nil {
		t.Fatal(err)
	}
	write := func(p *packet.Probe) {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range probes {
		write(&probes[i])
		if junkEvery > 0 && i%junkEvery == 0 {
			for _, proto := range []uint8{packet.ProtoUDP, 47} {
				q := probes[i]
				q.Proto, q.Payload = proto, nil
				write(&q)
				junk++
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), junk
}

// TestReplayMatchesDirect: a seeded scenario written through Writer and read
// back through Open + Replay yields the campaigns that feeding the detector
// directly does — for every format, passive and reactive, sequential and
// sharded — and every record read is accounted for exactly once, in the stats
// and in the counters.
func TestReplayMatchesDirect(t *testing.T) {
	for _, reactiveMode := range []bool{false, true} {
		mode := map[bool]string{false: "passive", true: "reactive"}[reactiveMode]
		probes := accepted(t, reactiveMode)
		var direct []*core.Scan
		det := core.NewDetector(core.ScaledConfig(testTelescope), func(s *core.Scan) { direct = append(direct, s) })
		var phase2, twoPhase uint64
		for i := range probes {
			if !probes[i].IsSYN() {
				phase2++
			}
			det.Ingest(&probes[i])
		}
		det.FlushAll()
		for _, s := range direct {
			if s.TwoPhase {
				twoPhase++
			}
		}
		if len(direct) < 100 || reactiveMode != (phase2 > 0) || reactiveMode != (twoPhase > 0) {
			t.Fatalf("%s scenario: %d probes (%d phase-two), %d flows (%d two-phase)",
				mode, len(probes), phase2, len(direct), twoPhase)
		}

		for _, format := range formats {
			data, junk := render(t, format, probes, 997)
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", format, mode, workers), func(t *testing.T) {
					rd, err := Open(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					if rd.Format() != format {
						t.Fatalf("Format() = %q", rd.Format())
					}
					if want := map[Format]int{Spool: testTelescope}[format]; rd.TelescopeSize() != want {
						t.Fatalf("TelescopeSize() = %d, want %d", rd.TelescopeSize(), want)
					}
					reg := obs.NewRegistry()
					var scans []*core.Scan
					det := NewDetector(testTelescope, 0, workers, reg, func(s *core.Scan) { scans = append(scans, s) })
					next := 0
					st, err := Replay(rd, det, ReplayConfig{
						Reactive: reactiveMode, Metrics: reg,
						Accepted: func(p *packet.Probe) {
							if next < len(probes) {
								sameProbe(t, format, next, p, &probes[next])
							}
							next++
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					det.FlushAll()

					want := ReplayStats{
						Records: uint64(len(probes)) + junk, Accepted: uint64(len(probes)),
						Phase2: phase2, NotSYN: junk, // a spool keeps the GRE record's fields: parsed, not TCP
					}
					if format != Spool {
						want.NotSYN, want.Unparsed = junk/2, junk/2
					}
					if st != want || next != len(probes) {
						t.Fatalf("stats %+v (Accepted called %d times), want %+v", st, next, want)
					}
					conserved(t, st, reg)
					sameScans(t, format, scans, direct)
				})
			}

			// The ingress filter is what separates the two modes: replayed
			// passively, a reactive capture loses exactly its phase-two
			// segments, and with them every two-phase link.
			if reactiveMode {
				rd, err := Open(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				linked := 0
				det := NewDetector(testTelescope, 0, 1, nil, func(s *core.Scan) {
					if s.TwoPhase {
						linked++
					}
				})
				st, err := Replay(rd, det, ReplayConfig{})
				det.FlushAll()
				if err != nil || st.Phase2 != 0 || st.Accepted != uint64(len(probes))-phase2 || linked != 0 {
					t.Fatalf("%s: passive replay of a reactive capture: %+v, %d two-phase, err %v", format, st, linked, err)
				}
				conserved(t, st, nil)
			}
		}
	}
}

// conserved: every record is accepted or dropped for one named reason, in
// the stats and — when a registry was wired — in its counters.
func conserved(t *testing.T, st ReplayStats, reg *obs.Registry) {
	t.Helper()
	if st.Records != st.Accepted+st.NotSYN+st.Unparsed {
		t.Fatalf("records %d != accepted %d + not-SYN %d + unparsed %d", st.Records, st.Accepted, st.NotSYN, st.Unparsed)
	}
	if reg == nil {
		return
	}
	c := reg.Snapshot().Counters
	if c["telescope.packets.accepted"] != st.Accepted || c["telescope.drop.not_syn"] != st.NotSYN ||
		c["telescope.drop.unparsed"] != st.Unparsed || c["pcap.records.truncated"] != st.Truncated {
		t.Fatalf("counters %v disagree with stats %+v", c, st)
	}
	if got := c["detector.packets"]; got != st.Accepted {
		t.Fatalf("detector.packets = %d, accepted = %d", got, st.Accepted)
	}
}

// sameProbe compares a replayed probe with the one written. Frames carry the
// payload; a spool record documents that it stores none.
func sameProbe(t *testing.T, format Format, i int, got, want *packet.Probe) {
	t.Helper()
	g, w := *got, *want
	if format == Spool {
		w.Payload = nil
	}
	if !bytes.Equal(g.Payload, w.Payload) {
		t.Fatalf("probe %d payload = %x, want %x", i, g.Payload, w.Payload)
	}
	g.Payload, w.Payload = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("probe %d = %+v, want %+v", i, g, w)
	}
}

func sameScans(t *testing.T, format Format, got, want []*core.Scan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d flows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := *got[i], *want[i]
		if format == Spool {
			g.Payload, g.PayloadBytes, w.Payload, w.PayloadBytes = nil, 0, nil, 0
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("flow %d differs:\n replayed: %+v\n direct:   %+v", i, g, w)
		}
	}
}

var recordIndex = regexp.MustCompile(`record \d+`)

// TestDamagedStreamFailsFast: a capture cut or damaged mid-way replays up to
// the damage and stops there. The stats account for exactly the records
// before it (Records == Accepted + NotSYN + Unparsed, and the admitted probes
// are the clean stream's), and the error names the format and the zero-based
// index of the record that could not be read, whichever codec met it.
func TestDamagedStreamFailsFast(t *testing.T) {
	probes := accepted(t, false)[:4000]
	const junkEvery, k = 97, 2500 // damage starts at the record of probes[k]
	for _, format := range formats {
		clean, _ := render(t, format, probes, junkEvery)
		prefix, junk := render(t, format, probes[:k], junkEvery)
		off := len(prefix)
		if !bytes.Equal(clean[:off], prefix) {
			t.Fatalf("%s: rendering is not prefix-stable", format)
		}
		damaged := append([]byte{}, clean...)
		var class error // what errors.Is must find in the damage case, if the codec exports one
		switch format {
		case Pcap: // stored length, high byte: far over the snap length
			damaged[off+11] = 0xFF
		case Pcapng: // block total length, high byte: over the block bound
			damaged[off+7], class = 0xFF, pcapng.ErrCorrupted
		case Spool: // a timestamp varint that never ends
			copy(damaged[off:], bytes.Repeat([]byte{0xFF}, 10))
		}
		for name, tc := range map[string]struct {
			data  []byte
			class error
		}{
			"cut":     {clean[:off+5], io.ErrUnexpectedEOF},
			"damaged": {damaged, class},
		} {
			t.Run(fmt.Sprintf("%s/%s", format, name), func(t *testing.T) {
				rd, err := Open(bytes.NewReader(tc.data))
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				det := NewDetector(testTelescope, 0, 1, reg, func(*core.Scan) {})
				next := 0
				st, err := Replay(rd, det, ReplayConfig{Metrics: reg, Accepted: func(p *packet.Probe) {
					sameProbe(t, format, next, p, &probes[next])
					next++
				}})
				want := ReplayStats{Records: k + junk, Accepted: k, NotSYN: junk}
				if format != Spool {
					want.NotSYN, want.Unparsed = junk/2, junk/2
				}
				if st != want || next != k {
					t.Fatalf("stats %+v (Accepted called %d times), want %+v", st, next, want)
				}
				conserved(t, st, reg)
				at := fmt.Sprintf("capture: %s record %d: ", format, st.Records)
				if err == nil || !strings.HasPrefix(err.Error(), at) || len(recordIndex.FindAllString(err.Error(), -1)) != 1 {
					t.Fatalf("error %q, want it to start %q and state the index once", err, at)
				}
				if tc.class != nil && !errors.Is(err, tc.class) {
					t.Fatalf("error %q is not %q", err, tc.class)
				}
			})
		}
	}
}

var errBoom = errors.New("boom")

// TestReadErrorIsNotTruncation: when the underlying reader fails — an EIO from
// the disk — every format reports that error, wherever in a record it
// strikes, and never dresses it up as a cut file (io.ErrUnexpectedEOF).
func TestReadErrorIsNotTruncation(t *testing.T) {
	probes := accepted(t, true)[:3]
	for _, format := range formats {
		valid, _ := render(t, format, probes, 0)
		for cut := 0; cut < len(valid); cut++ {
			err := func() error {
				rd, err := Open(io.MultiReader(bytes.NewReader(valid[:cut]), iotest.ErrReader(errBoom)))
				for p := new(packet.Probe); err == nil; {
					_, err = rd.Next(p)
				}
				return err
			}()
			if !errors.Is(err, errBoom) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: valid[:%d] then a read error: got %q, want it to be %q and not io.ErrUnexpectedEOF", format, cut, err, errBoom)
				break // one cut per format says it
			}
		}
	}
}

// TestNonEthernetRejected: frames of any other link type would all fail to
// decode as Ethernet, so the capture would replay as empty; it is an error
// that names the link type instead — at Open for a pcap, at the first packet
// of the offending interface for a pcapng.
func TestNonEthernetRejected(t *testing.T) {
	frame := (&packet.Probe{Src: 1, Dst: 2, DstPort: 80, Flags: packet.FlagSYN}).MarshalFrame()
	for _, lt := range []uint32{pcap.LinkTypeRaw, pcap.LinkTypeNull} {
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf, pcap.WithLinkType(lt))
		if err != nil {
			t.Fatal(err)
		}
		w.WritePacket(1, frame[packet.EthernetHeaderLen:])
		w.Flush()
		_, err = Open(&buf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("link type %d", lt)) {
			t.Fatalf("pcap with link type %d: Open error = %v", lt, err)
		}
	}

	// Two sections: interface 0 is Ethernet in the first and raw IP in the
	// second.
	var buf bytes.Buffer
	for _, lt := range []uint32{pcap.LinkTypeEthernet, pcap.LinkTypeRaw} {
		w, err := pcapng.NewWriter(&buf, uint16(lt))
		if err != nil {
			t.Fatal(err)
		}
		w.WritePacket(1, frame)
		w.WritePacket(2, frame)
		w.Flush()
	}
	rd, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Probe
	for i := 0; i < 2; i++ {
		if decoded, err := rd.Next(&p); !decoded || err != nil || p.DstPort != 80 {
			t.Fatalf("Ethernet section, packet %d: decoded %v, err %v, %+v", i, decoded, err, p)
		}
	}
	if _, err := rd.Next(&p); err == nil || !strings.Contains(err.Error(), "link type 101") ||
		!strings.Contains(err.Error(), "interface 0") {
		t.Fatalf("raw-IP section: Next error = %v", err)
	}
}

// TestTruncatedCounted: records cut to the snap length are counted for pcap
// and pcapng alike, by the reader and in pcap.records.truncated.
func TestTruncatedCounted(t *testing.T) {
	frame := (&packet.Probe{Src: 1, Dst: 2, DstPort: 80, Flags: packet.FlagSYN}).MarshalFrame()

	var classic bytes.Buffer
	pw, err := pcap.NewWriter(&classic, pcap.WithSnaplen(uint32(len(frame))))
	if err != nil {
		t.Fatal(err)
	}
	pw.WritePacket(1, frame)
	pw.WritePacket(2, append(frame[:len(frame):len(frame)], make([]byte, 6)...)) // Ethernet padding, cut off
	pw.Flush()

	var ng bytes.Buffer
	nw, err := pcapng.NewWriter(&ng, uint16(pcap.LinkTypeEthernet))
	if err != nil {
		t.Fatal(err)
	}
	nw.WritePacket(1, frame)
	nw.Flush()
	block := ng.Len() // the second Enhanced Packet Block starts here
	nw.WritePacket(2, frame)
	nw.Flush()
	// Block type, total length, interface, timestamp (2 words), captured
	// length, then the original length: say the wire held 6 bytes more.
	binary.LittleEndian.PutUint32(ng.Bytes()[block+24:], uint32(len(frame)+6))

	for format, data := range map[Format][]byte{Pcap: classic.Bytes(), Pcapng: ng.Bytes()} {
		rd, err := Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st, err := Replay(rd, NewDetector(testTelescope, 0, 1, reg, func(*core.Scan) {}), ReplayConfig{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 2 || st.Accepted != 2 || st.Truncated != 1 || rd.Truncated() != 1 {
			t.Fatalf("%s: %+v, reader counts %d truncated", format, st, rd.Truncated())
		}
		conserved(t, st, reg)
	}
}

// TestAllocBudgetCaptureNext pins the promise the replay loop is built on: a
// warmed Reader and one Probe read records of any format — payload-carrying
// phase-two frames included — without allocating.
func TestAllocBudgetCaptureNext(t *testing.T) {
	const perCall = 32
	probes := accepted(t, true)
	if len(probes) < 102*perCall { // Check calls fn once to warm and 100 times measured
		t.Fatalf("scenario too small: %d probes", len(probes))
	}
	for _, format := range formats {
		data, _ := render(t, format, probes, 0)
		rd, err := Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var p packet.Probe
		alloctest.Check(t, "capture-next/"+string(format), 0, func() {
			for i := 0; i < perCall; i++ {
				if decoded, err := rd.Next(&p); !decoded || err != nil {
					t.Fatalf("%s: decoded %v, err %v", format, decoded, err)
				}
			}
		})
	}
}

// FuzzOpen: whatever the bytes, Open and Next return — a probe, an error or
// io.EOF — without panicking, and every record consumes input, so a stream
// cannot hold more records than bytes.
func FuzzOpen(f *testing.F) {
	probes := []packet.Probe{
		{Time: 1e9, Src: 1, Dst: 2, SrcPort: 40000, DstPort: 80, Seq: 7, Flags: packet.FlagSYN, TTL: 50},
		{Time: 2e9, Src: 1, Dst: 2, SrcPort: 40000, DstPort: 80, Seq: 8, Ack: 9, Flags: packet.FlagACK | packet.FlagPSH, Payload: []byte("GET / HTTP/1.1\r\n")},
		{Time: 3e9, Src: 3, Dst: 4, SrcPort: 53, DstPort: 53, Proto: packet.ProtoUDP},
	}
	f.Add([]byte{})
	for _, format := range formats {
		valid, _ := render(f, format, probes, 0)
		f.Add(valid)
		f.Add(valid[:len(valid)-3])
		for seed := uint64(1); seed <= 3; seed++ {
			flipped := append([]byte{}, valid...)
			faultinject.FlipBytes(flipped, seed, 2*int(seed), 4, 0) // past the magic, so the format's reader sees it
			f.Add(flipped)
			noisy, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(valid), faultinject.ReaderConfig{
				Seed: seed, CorruptRate: 0.02 * float64(seed), CorruptStart: 4,
			}))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(noisy)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := Open(bytes.NewReader(data))
		if err != nil {
			return
		}
		var p packet.Probe
		for records := 0; ; records++ {
			if records > len(data) {
				t.Fatalf("%s: more records than the stream's %d bytes", rd.Format(), len(data))
			}
			if _, err := rd.Next(&p); err != nil {
				return
			}
		}
	})
}
