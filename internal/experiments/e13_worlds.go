package experiments

import (
	"fmt"
	"time"

	"altrun/internal/core"
	"altrun/internal/msg"
)

// E13: §3.4.2 multiple worlds. Speculative alternatives message a
// shared server; each first contact splits the receiving world. We
// count the delivery decisions (accept / ignore / split), the worlds
// created and eliminated, and the block's execution time with and
// without speculative IPC, to price the mechanism.

// E13Result summarizes the message-layer behaviour.
type E13Result struct {
	Senders      int
	Sent         int
	Accepted     int
	Ignored      int
	Splits       int
	WorldSplits  int
	Eliminations int
	FinalCounter uint64
	LiveCopies   int
	Elapsed      time.Duration
}

// E13 runs a block of N speculative senders against one counter
// server; every sender increments the counter, exactly one increment
// must survive.
func E13() (E13Result, error) {
	const senders = 4
	rt := core.NewSim(core.SimConfig{Profile: zeroProfile(1024)})
	out := E13Result{Senders: senders}
	var failure error

	handler := func(w *core.World, m msg.Message) {
		switch m.Data {
		case "inc":
			v, err := w.ReadUint64(0)
			if err != nil {
				failure = err
				return
			}
			if err := w.WriteUint64(0, v+1); err != nil {
				failure = err
			}
		case "get":
			v, err := w.ReadUint64(0)
			if err != nil {
				failure = err
				return
			}
			if err := w.Send(m.Sender, v); err != nil {
				failure = err
			}
		}
	}
	srv := rt.SpawnServer("counter", 4096, handler)

	rt.GoRoot("root", 1024, func(w *core.World) {
		alts := make([]core.Alt, senders)
		for i := 0; i < senders; i++ {
			d := time.Duration(i+1) * time.Second
			alts[i] = core.Alt{
				Name: fmt.Sprintf("sender-%d", i+1),
				Body: func(cw *core.World) error {
					if err := cw.Send(srv.PID(), "inc"); err != nil {
						return err
					}
					cw.Compute(d)
					return nil
				},
			}
		}
		start := rt.Now()
		_, err := w.RunAlt(core.Options{SyncElimination: true}, alts...)
		if err != nil {
			failure = err
			return
		}
		out.Elapsed = rt.Now().Sub(start)
		w.Sleep(time.Minute) // let resolution settle

		// Query the surviving copy.
		if err := w.Send(srv.PID(), "get"); err != nil {
			failure = err
			return
		}
		reply, ok := w.Recv(time.Minute)
		if !ok {
			failure = fmt.Errorf("no reply from surviving server copy")
			return
		}
		v, isU64 := reply.Data.(uint64)
		if !isU64 {
			failure = fmt.Errorf("bad reply %#v", reply.Data)
			return
		}
		out.FinalCounter = v

		// Count live copies and shut them down so the sim drains.
		copies := rt.Copies(srv.PID())
		out.LiveCopies = len(copies)
		for _, cw := range copies {
			rt.Shutdown(cw)
		}
	})
	if err := rt.Run(); err != nil {
		return out, err
	}
	if failure != nil {
		return out, failure
	}
	st := rt.MsgStats()
	out.Sent = st.Sent
	out.Accepted = st.Accepted
	out.Ignored = st.Ignored
	out.Splits = st.Splits
	sel := rt.SelStats()
	out.WorldSplits = int(sel.WorldSplits)
	out.Eliminations = int(sel.Eliminations)
	return out, nil
}

// Format renders the multiple-worlds audit.
func (r E13Result) Format() string {
	rows := [][]string{
		{"speculative senders", fmt.Sprintf("%d", r.Senders)},
		{"messages sent", fmt.Sprintf("%d", r.Sent)},
		{"accepted", fmt.Sprintf("%d", r.Accepted)},
		{"ignored (dead worlds)", fmt.Sprintf("%d", r.Ignored)},
		{"split decisions", fmt.Sprintf("%d", r.Splits)},
		{"world splits performed", fmt.Sprintf("%d", r.WorldSplits)},
		{"eliminations", fmt.Sprintf("%d", r.Eliminations)},
		{"surviving counter value", fmt.Sprintf("%d (want 1)", r.FinalCounter)},
		{"surviving copies", fmt.Sprintf("%d (want 1)", r.LiveCopies)},
		{"block elapsed", fmtDur(r.Elapsed)},
	}
	return "E13 — §3.4.2 multiple worlds: speculative senders split a shared server; one timeline survives\n" +
		table([]string{"property", "value"}, rows)
}
