package main

import (
	"fmt"
	"time"

	"altrun/internal/consensus"
	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/page"
	istm "altrun/internal/stm"
	"altrun/internal/transport"
)

// Probes are short direct loops over one public function with the
// workload's own sizes, for costs that cannot be seen from a block's
// closures. They run after the traced phase, on a quiet process.

const probeIters = 2000

// probeLoop reports the median ns of fn over probeIters calls; fn
// returns the part of one call to time.
func probeLoop(fn func() (time.Duration, error)) (float64, error) {
	ns := make([]float64, 0, probeIters)
	for i := 0; i < probeIters; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(d))
	}
	return median(ns), nil
}

func (h *harness) probes(res *sliceResult) error {
	if err := h.probeMem(res); err != nil {
		return fmt.Errorf("mem probe: %w", err)
	}
	if h.env.net != nil {
		if err := probeCodec(res); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	if isSTM(h.w.name) {
		if err := probeSTM(res); err != nil {
			return fmt.Errorf("stm probe: %w", err)
		}
	}
	return nil
}

// probeMem times AddressSpace.Fork+Discard and Adopt of a child that
// dirtied as many pages as the workload's winner does, on a resident
// space of the workload's size.
func (h *harness) probeMem(res *sliceResult) error {
	store := page.NewStore(0)
	parent := mem.New(store, h.w.spaceSize)
	for off := int64(0); off < h.w.spaceSize; off += pageSize {
		if err := parent.WriteUint64(off, 1); err != nil {
			return err
		}
	}
	fork, err := probeLoop(func() (time.Duration, error) {
		t0 := time.Now()
		child, err := parent.Fork()
		if err != nil {
			return 0, err
		}
		child.Discard()
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	adopt, err := probeLoop(func() (time.Duration, error) {
		child, err := parent.Fork()
		if err != nil {
			return 0, err
		}
		for p := 0; p < h.w.dirty; p++ {
			if err := child.WriteUint64(int64(p)*pageSize, 2); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err = parent.Adopt(child)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	res.set("mem.fork_ns", fork, probeIters)
	res.set("mem.adopt_ns", adopt, probeIters)
	return nil
}

// probeCodec times the wire codec on the frame quorum3 sends most: a
// one-claim ballot request.
func probeCodec(res *sliceResult) error {
	env := transport.Envelope{
		From: 1, To: transport.Addr{Node: 2, Port: consensus.DefaultVotePort},
		Payload: consensus.BallotReq{
			Round: 12345, Epoch: 1, Reply: transport.Addr{Node: 1, Port: consensus.CoalescerPort(consensus.DefaultVotePort)},
			Claims: []consensus.BallotClaim{{Key: "q/123456", Claimant: ids.PID(4242)}},
		},
	}
	var buf, frame []byte
	encode, err := probeLoop(func() (time.Duration, error) {
		t0 := time.Now()
		out, binary, err := transport.AppendEnvelope(buf[:0], env)
		d := time.Since(t0)
		if err == nil && !binary {
			err = fmt.Errorf("ballot request fell back to gob")
		}
		buf, frame = out, out
		return d, err
	})
	if err != nil {
		return err
	}
	decode, err := probeLoop(func() (time.Duration, error) {
		t0 := time.Now()
		got, err := transport.DecodeEnvelope(frame)
		d := time.Since(t0)
		if err == nil {
			if req, ok := got.Payload.(consensus.BallotReq); !ok || len(req.Claims) != 1 || req.Claims[0].Key != "q/123456" {
				err = fmt.Errorf("ballot request decoded as %+v", got.Payload)
			}
		}
		return d, err
	})
	if err != nil {
		return err
	}
	res.set("codec.encode_ballot_ns", encode, probeIters)
	res.set("codec.decode_ballot_ns", decode, probeIters)
	return nil
}

// probeSTM times one settled round trip (Store.Read) and one send
// (Store.Write) on an unsplit 8-key store from a root world: the floor
// under the speculative operations inside the blocks, which the
// program's own RunOps does not let the benchmark time one by one.
func probeSTM(res *sliceResult) error {
	rt := core.New(core.Config{})
	root, err := rt.NewRootWorld("probe", pageSize)
	if err != nil {
		return err
	}
	spec := stmSpec(1, 0, 1, 0)
	cfg := spec.Config()
	store := istm.NewStore(rt, "probe-store", cfg.StoreKeys())
	defer func() {
		_ = store.Close() // a probe store that will not close shows as leaked goroutines
		rt.Shutdown(root)
	}()
	if err := store.Seed(root, istm.InitVals(cfg), cfg.ReadTimeout); err != nil {
		return err
	}
	read, err := probeLoop(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := store.Read(root, 3, cfg.ReadTimeout)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	write, err := probeLoop(func() (time.Duration, error) {
		t0 := time.Now()
		err := store.Write(root, 3, 7)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	// Fence the writes so Close finds an idle store.
	if _, err := store.Read(root, 3, cfg.ReadTimeout); err != nil {
		return err
	}
	res.set("stm.read_us", read/1e3, probeIters)
	res.set("stm.write_us", write/1e3, probeIters)
	return nil
}
