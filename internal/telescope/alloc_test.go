package telescope

import (
	"testing"

	"github.com/synscan/synscan/internal/alloctest"
	"github.com/synscan/synscan/internal/packet"
)

// TestAllocBudgetObserve is the enforced budget for telescope ingress:
// membership (a bit test in the block that holds the address), SYN
// filtering, port policy and outage windows are all allocation-free, for
// accepted and dropped packets alike. Reported under "telescope-observe".
func TestAllocBudgetObserve(t *testing.T) {
	tel := small(t)
	tel.BlockPort(23)
	tel.AddOutage(5000, 6000)
	probes := []packet.Probe{
		{Time: 1, Dst: tel.At(0), DstPort: 80, Flags: packet.FlagSYN},
		{Time: 2, Dst: tel.At(tel.Size() - 1), DstPort: 443, Flags: packet.FlagSYN},
		{Time: 3, Dst: 0x01010101, DstPort: 80, Flags: packet.FlagSYN},
		{Time: 4, Dst: tel.At(1), DstPort: 23, Flags: packet.FlagSYN},
		{Time: 5500, Dst: tel.At(2), DstPort: 80, Flags: packet.FlagSYN},
		{Time: 6, Dst: tel.At(3), DstPort: 80, Flags: packet.FlagACK},
		{Time: 7, Dst: tel.At(4), DstPort: 53, Proto: packet.ProtoUDP},
		{Time: -1, Dst: tel.At(5), DstPort: 80, Flags: packet.FlagSYN},
	}
	alloctest.Check(t, "telescope-observe", 0, func() {
		for i := range probes {
			_ = tel.Observe(&probes[i])
		}
	})
}
