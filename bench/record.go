package main

import (
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/serve"
)

// epoch anchors the benchmark's clock; every timestamp is monotonic
// nanoseconds since it, so records are plain int64s.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// failClass says how a block ended. Only committed blocks enter the
// latency percentiles; every other class is counted, never fatal.
type failClass uint8

const (
	classCommitted failClass = iota
	classRejected            // Submit refused the job
	classDeadline            // the job's deadline expired (e.g. a lost reply)
	classAllFailed           // every alternative failed
	classExtract             // the committed state could not be read back
	classError               // anything else
	numClasses
)

var classNames = [numClasses]string{"committed", "rejected", "deadline", "all_failed", "extract", "error"}

// opSpan is a traced operation inside an alternative's body: n calls of
// one kind timed as one span, so the timer's own cost is paid once.
type opSpan struct {
	name string
	n    int
	span
}

// altRec holds the stamps one alternative's closures leave behind.
// Zero means "not reached". A loser may still be writing its record
// after the block has its reply; losers are only read once the runtime
// has been waited for.
type altRec struct {
	bodyStart, bodyEnd, guardEnd int64
	ops                          []opSpan
}

// end is when the alternative's own work (body, then guard) finished.
func (a *altRec) end() int64 { return max(a.bodyEnd, a.guardEnd) }

// blockRec is everything the benchmark learns about one block from
// outside: the client's clock around the call, and the stamps of the
// closures it handed to the program.
type blockRec struct {
	client int
	seq    int64
	try    int // 1, or higher for a block sent again because the one before did not commit
	traced bool
	direct bool // RunAlt called by the client, no serve layer

	span   // client clock: call → reply
	class  failClass
	winner int
	alts   []altRec

	submitEnd              int64 // Pool.Submit returned
	init, extract, cleanup span  // job closures (serve workloads)
	claim                  span  // the winning claim
	wins                   atomic.Int32
	winnerPID              ids.PID     // who was granted the commit
	claimKey               string      // quorum3: the consensus key of the block
	res                    core.Result // direct blocks: the runtime's own decomposition
}

// work is the winning alternative's own body+guard time.
func (b *blockRec) work() int64 {
	a := &b.alts[b.winner]
	return max(a.end()-a.bodyStart, 0)
}

// instrument wraps the alternatives' closures so each leaves its
// timestamps in b. The two stamps per closure are all the measured
// window pays; op-level spans are recorded by the bodies themselves,
// and only when b.traced.
func instrument(alts []core.Alt, b *blockRec) []core.Alt {
	b.alts = make([]altRec, len(alts))
	out := make([]core.Alt, len(alts))
	for i, a := range alts {
		rec, body, guard := &b.alts[i], a.Body, a.Guard
		out[i] = core.Alt{Name: a.Name, Body: func(w *core.World) error {
			rec.bodyStart = now()
			err := body(w)
			rec.bodyEnd = now()
			return err
		}}
		if guard != nil {
			out[i].Guard = func(w *core.World) (bool, error) {
				ok, err := guard(w)
				rec.guardEnd = now()
				return ok, err
			}
		}
	}
	return out
}

// instrumentJob wraps a serve job's closures like instrument does the
// alternatives'. Init is added when the job has none: it is the only
// way to see, from outside, when a worker picked the job up.
func instrumentJob(j serve.Job, b *blockRec) serve.Job {
	j.Alts = instrument(j.Alts, b)
	if !b.traced {
		return j
	}
	init, extract, cleanup := j.Init, j.Extract, j.Cleanup
	j.Init = func(w *core.World) (err error) {
		b.init.start = now()
		if init != nil {
			err = init(w)
		}
		b.init.end = now()
		return err
	}
	if extract != nil {
		j.Extract = func(w *core.World) (any, error) {
			b.extract.start = now()
			v, err := extract(w)
			b.extract.end = now()
			return v, err
		}
	}
	if cleanup != nil {
		j.Cleanup = func(w *core.World) {
			b.cleanup.start = now()
			cleanup(w)
			b.cleanup.end = now()
		}
	}
	return j
}

// timedClaim wraps a commit arbiter: it counts grants (more than one
// per block is a transparency violation) and, on traced blocks, times
// the winning claim.
func timedClaim(b *blockRec, claim core.ClaimFunc) core.ClaimFunc {
	return func(w *core.World) bool {
		var t0 int64
		if b.traced {
			t0 = now()
		}
		won := claim(w)
		if won {
			if b.traced {
				b.claim = span{t0, now()}
			}
			b.winnerPID = w.PID()
			b.wins.Add(1)
		}
		return won
	}
}

// violations collects transparency and oracle failures. Any entry makes
// the run incorrect and the command exit non-zero: a wrong answer is
// not a performance number.
type violations struct {
	mu   sync.Mutex
	list []string
	n    int
}

func (v *violations) add(msg string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.list) < 8 {
		v.list = append(v.list, msg)
	}
}

func (v *violations) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}
