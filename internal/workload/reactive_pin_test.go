package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"github.com/synscan/synscan/internal/packet"
	"github.com/synscan/synscan/internal/reactive"
)

// TestReactiveStreamPinned pins everything RunReactive puts out at the
// reactive ingest benchmark's capture configuration (year 2021, ecosystem
// seed 2021, vantage point 1, scale 0.00056, 4096 addresses): every emitted
// probe, field by field, its Disposition with the SYN-ACK it rendered, the
// Summary, and the responder's and the telescope's Stats. The default
// policy's table never fills at this scale. The other two runs lift the
// rate limit and make the table evict: 64 invitations that live ten minutes
// (at the default 30 s, 64 invitations outlive their deadlines before the
// ring comes round), and two, so few that evictions cut phase two short.
// The constants are the
// stream as the responder produced it before it lost its lock, its index
// search on eviction and its by-value SYN-ACK: any change to what it answers,
// admits, evicts or counts moves them.
func TestReactiveStreamPinned(t *testing.T) {
	evicting := reactive.DefaultPolicy(1)
	evicting.MaxState, evicting.RatePerSec, evicting.StateTTL = 64, 0, 600e9
	starved := reactive.DefaultPolicy(1)
	starved.MaxState, starved.RatePerSec = 2, 0
	for _, c := range []struct {
		name string
		pol  reactive.Policy
		want string
	}{
		{"default", reactive.DefaultPolicy(1), "f7d9289f2abe7ae87a4e700ad9381082d9eabe7877242c3d7ab78dd499fae8a8"},
		{"evicting", evicting, "3e89991aa0ca53ae39aad0832a4a59d09ad6220cc2a14ec649e2dfaa0026f95f"},
		{"starved", starved, "8c7e97bc4f0a9b8470c8ecd83c6bec7d2af2866628c752e64dcd1c4863817dec"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewScenario(Config{Year: 2021, Seed: 2021, TelescopeSeed: 1, Scale: 0.00056, TelescopeSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			rt := reactive.New(s.Telescope, c.pol)
			h := sha256.New()
			var b [64]byte
			sum := s.RunReactive(rt, func(p *packet.Probe, d reactive.Disposition) {
				pinProbe(h, b[:], p)
				b[0], b[1] = byte(d.Reason), byte(d.Phase)
				b[2] = 0
				if d.Responded {
					b[2] = 1
				}
				h.Write(b[:3])
				if d.Responded {
					r := d.SynAck(p)
					pinProbe(h, b[:], &r)
				}
			})
			rs, ts := rt.Stats(), s.Telescope.Stats()
			fmt.Fprintf(h, "%+v\n%+v\n%+v\n", sum, rs, ts)
			got := fmt.Sprintf("%x", h.Sum(nil))
			t.Logf("%+v\nresponder %+v\ntelescope %+v", sum, rs, ts)
			if c.name != "default" && rs.Evicted == 0 {
				t.Fatalf("no live invitation was evicted: %+v", rs)
			}
			if got != c.want {
				t.Fatalf("reactive stream hash %s, pinned %s", got, c.want)
			}
		})
	}
}

// pinProbe folds every field of p into h, b being scratch.
func pinProbe(h hash.Hash, b []byte, p *packet.Probe) {
	be := binary.BigEndian
	be.PutUint64(b[0:], uint64(p.Time))
	be.PutUint32(b[8:], p.Src)
	be.PutUint32(b[12:], p.Dst)
	be.PutUint16(b[16:], p.SrcPort)
	be.PutUint16(b[18:], p.DstPort)
	be.PutUint32(b[20:], p.Seq)
	be.PutUint32(b[24:], p.Ack)
	be.PutUint16(b[28:], p.IPID)
	b[30], b[31], b[32] = p.TTL, p.Flags, p.Proto
	be.PutUint16(b[33:], p.Window)
	be.PutUint32(b[35:], uint32(len(p.Payload)))
	h.Write(b[:39])
	h.Write(p.Payload)
}
