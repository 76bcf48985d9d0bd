package serve

import (
	"math"
	"strconv"
	"time"
)

// admission bounds the number of archive scans running at once. Slots are a
// fixed-capacity token channel acquired fast-fail: when every slot is taken
// the server answers 429 with a Retry-After hint immediately, instead of
// queueing work it cannot start — queue collapse under overload is the
// failure mode this exists to prevent. Cache hits and singleflight followers
// never take a slot; only flight leaders (the requests that actually scan)
// are admitted.
//
// A nil *admission admits everything (the -max-inflight 0 configuration).
type admission struct {
	slots      chan struct{}
	retryAfter time.Duration
}

func newAdmission(maxInflight int, retryAfter time.Duration) *admission {
	if maxInflight <= 0 {
		return nil
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &admission{
		slots:      make(chan struct{}, maxInflight),
		retryAfter: retryAfter,
	}
}

// tryAcquire claims a slot without waiting.
func (a *admission) tryAcquire() bool {
	if a == nil {
		return true
	}
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a slot claimed by tryAcquire.
func (a *admission) release() {
	if a != nil {
		<-a.slots
	}
}

// inflight reports the number of claimed slots, for the server.inflight
// gauge.
func (a *admission) inflight() int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.slots))
}

// retryAfterHeader renders the hint as whole seconds (minimum 1), the form
// every retrying client understands.
func (a *admission) retryAfterHeader() string {
	d := time.Second
	if a != nil && a.retryAfter > 0 {
		d = a.retryAfter
	}
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
