package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NetCounters counts transport-fabric work: messages and bytes moved,
// losses, reconnect attempts, and commit-protocol round-trip times.
// Like SelCounters they are plain atomics (plus a small mutex-guarded
// RTT reservoir), cheap enough to stay on in production; the daemon
// exposes a snapshot on /metrics and distbench records one per run.
type NetCounters struct {
	// MsgsSent / MsgsRecv count messages submitted and delivered.
	MsgsSent atomic.Int64
	MsgsRecv atomic.Int64
	// BytesSent / BytesRecv count payload bytes (actual frame bytes on
	// the real transport, estimated on the simulator).
	BytesSent atomic.Int64
	BytesRecv atomic.Int64
	// Dropped counts messages lost to partitions, drop injection,
	// unbound ports, or full peer queues.
	Dropped atomic.Int64
	// Retries counts reconnect/redial attempts on the real transport.
	Retries atomic.Int64
	// RTTDropped counts round-trip samples discarded because a
	// reconnect happened mid-flight: the elapsed time then includes
	// dial/backoff latency, not protocol latency, and folding it into
	// the EWMA would poison the estimate for dozens of samples.
	RTTDropped atomic.Int64

	// Group-commit consensus accounting: BallotRounds counts batched
	// quorum rounds sent by a coalescer; BallotsCoalesced counts the
	// per-key claims those rounds carried. Coalesced/Rounds is the
	// amortization factor the group-commit path buys. ClaimsFollowed
	// counts claims the coalescer answered without a round of their
	// own: followers of a key's in-flight leader plus hits on its
	// decided-key cache — why a block costs one round, not one per
	// alternative.
	BallotRounds     atomic.Int64
	BallotsCoalesced atomic.Int64
	ClaimsFollowed   atomic.Int64

	// Wire-codec accounting: frames encoded with the hand-rolled binary
	// codec vs frames that fell back to gob (unregistered payload type).
	CodecFrames    atomic.Int64
	CodecFallbacks atomic.Int64

	// rfork checkpoint-shipping accounting: full base images vs
	// dirty-page deltas, their payload bytes, and receiver cache misses
	// (a delta that arrived without its base and was NAKed back for a
	// full re-ship).
	FullShips      atomic.Int64
	DeltaShips     atomic.Int64
	FullShipBytes  atomic.Int64
	DeltaShipBytes atomic.Int64
	ShipMisses     atomic.Int64

	// rtt is a bounded reservoir of observed round-trip times (consensus
	// ballot request → reply). Once full, new samples overwrite the
	// oldest — recent behaviour is what /metrics wants.
	rttMu    sync.Mutex
	rtt      []time.Duration
	rttNext  int
	rttCount int64
	// rttEWMA smooths the same stream (α = rttAlpha); unlike the
	// quantiles it is O(1) to read, so the flight recorder and
	// /metrics can poll it per scrape.
	rttEWMA float64
}

// rttAlpha is the EWMA smoothing factor for the RTT estimate.
const rttAlpha = 0.2

// rttReservoirCap bounds the RTT sample memory.
const rttReservoirCap = 1024

// ObserveRTT records one protocol round-trip time. Nil-safe.
func (c *NetCounters) ObserveRTT(d time.Duration) {
	if c == nil {
		return
	}
	c.rttMu.Lock()
	defer c.rttMu.Unlock()
	if len(c.rtt) < rttReservoirCap {
		c.rtt = append(c.rtt, d)
	} else {
		c.rtt[c.rttNext] = d
		c.rttNext = (c.rttNext + 1) % rttReservoirCap
	}
	if c.rttCount == 0 {
		c.rttEWMA = float64(d)
	} else {
		c.rttEWMA = (1-rttAlpha)*c.rttEWMA + rttAlpha*float64(d)
	}
	c.rttCount++
}

// RetryCount returns the current reconnect-attempt count. Callers
// measuring an RTT snapshot it before sending and pass it to
// ObserveRTTIfStable on reply. Nil-safe.
func (c *NetCounters) RetryCount() int64 {
	if c == nil {
		return 0
	}
	return c.Retries.Load()
}

// ObserveRTTIfStable records d only if no reconnect happened since the
// caller snapshotted retriesAtStart (via RetryCount): a sample that
// straddles a redial measures dial latency plus backoff, not the
// protocol round trip, so it is counted in RTTDropped instead of
// skewing the EWMA and quantiles. Returns whether the sample was kept.
// Nil-safe (reports true: there is nothing to skew).
func (c *NetCounters) ObserveRTTIfStable(d time.Duration, retriesAtStart int64) bool {
	if c == nil {
		return true
	}
	if c.Retries.Load() != retriesAtStart {
		c.RTTDropped.Add(1)
		return false
	}
	c.ObserveRTT(d)
	return true
}

// NetSnapshot is a point-in-time copy of NetCounters.
type NetSnapshot struct {
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	Dropped   int64 `json:"dropped"`
	Retries   int64 `json:"retries"`

	// Group commit, codec, and delta-shipping accounting (zero when the
	// corresponding mechanism is unused, omitted from JSON then).
	BallotRounds     int64 `json:"ballot_rounds,omitempty"`
	BallotsCoalesced int64 `json:"ballots_coalesced,omitempty"`
	ClaimsFollowed   int64 `json:"claims_followed,omitempty"`
	CodecFrames      int64 `json:"codec_frames,omitempty"`
	CodecFallbacks   int64 `json:"codec_fallbacks,omitempty"`
	FullShips        int64 `json:"full_ships,omitempty"`
	DeltaShips       int64 `json:"delta_ships,omitempty"`
	FullShipBytes    int64 `json:"full_ship_bytes,omitempty"`
	DeltaShipBytes   int64 `json:"delta_ship_bytes,omitempty"`
	ShipMisses       int64 `json:"ship_misses,omitempty"`

	// RTT quantiles over the sample reservoir, in milliseconds
	// (float so sub-millisecond sim latencies survive).
	RTTSamples int64   `json:"rtt_samples"`
	RTTP50MS   float64 `json:"rtt_p50_ms"`
	RTTP95MS   float64 `json:"rtt_p95_ms"`
	RTTP99MS   float64 `json:"rtt_p99_ms"`
	// RTTEWMAMS is the smoothed round-trip estimate; RTTDropped counts
	// samples discarded for straddling a reconnect.
	RTTEWMAMS  float64 `json:"rtt_ewma_ms"`
	RTTDropped int64   `json:"rtt_dropped"`
}

// Snapshot reads all counters. Nil-safe, matching SelCounters.
func (c *NetCounters) Snapshot() NetSnapshot {
	if c == nil {
		return NetSnapshot{}
	}
	s := NetSnapshot{
		MsgsSent:         c.MsgsSent.Load(),
		MsgsRecv:         c.MsgsRecv.Load(),
		BytesSent:        c.BytesSent.Load(),
		BytesRecv:        c.BytesRecv.Load(),
		Dropped:          c.Dropped.Load(),
		Retries:          c.Retries.Load(),
		RTTDropped:       c.RTTDropped.Load(),
		BallotRounds:     c.BallotRounds.Load(),
		BallotsCoalesced: c.BallotsCoalesced.Load(),
		ClaimsFollowed:   c.ClaimsFollowed.Load(),
		CodecFrames:      c.CodecFrames.Load(),
		CodecFallbacks:   c.CodecFallbacks.Load(),
		FullShips:        c.FullShips.Load(),
		DeltaShips:       c.DeltaShips.Load(),
		FullShipBytes:    c.FullShipBytes.Load(),
		DeltaShipBytes:   c.DeltaShipBytes.Load(),
		ShipMisses:       c.ShipMisses.Load(),
	}
	c.rttMu.Lock()
	samples := append([]time.Duration(nil), c.rtt...)
	s.RTTSamples = c.rttCount
	s.RTTEWMAMS = c.rttEWMA / float64(time.Millisecond)
	c.rttMu.Unlock()
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(samples)-1))
			return float64(samples[i]) / float64(time.Millisecond)
		}
		s.RTTP50MS = q(0.50)
		s.RTTP95MS = q(0.95)
		s.RTTP99MS = q(0.99)
	}
	return s
}
