// Worlds: the paper's multiple-worlds message layer (§3.4.2) in
// action. Two speculative alternatives both message a shared inventory
// server before either has won. Each first contact splits a version of
// the server: the version itself goes on assuming the message did not
// happen, and a new version, forked from it, assumes it did and takes
// it. All versions live in the server's one receive loop. When the race
// resolves, predicate resolution eliminates every version whose
// assumptions turned out false — the surviving timeline reflects
// exactly the winner's order, as if it had been the only one.
//
// Run with: go run ./examples/worlds
package main

import (
	"fmt"
	"log"
	"time"

	"altrun"
	"altrun/internal/msg"
)

func main() {
	rt := altrun.NewSim(altrun.SimConfig{
		Profile: altrun.MachineProfile{Name: "demo", PageSize: 4096, CPUs: 0},
	})

	// The inventory server: stock count at offset 0 of its own paged
	// state. All durable state lives in the world's address space —
	// that is what makes the server splittable.
	inventory := rt.SpawnServer("inventory", 4096, func(w *altrun.World, m msg.Message) {
		switch m.Data {
		case "restock":
			v, err := w.ReadUint64(0)
			if err != nil {
				return
			}
			if err := w.WriteUint64(0, v+1); err != nil {
				log.Fatal(err)
			}
		case "reserve":
			v, err := w.ReadUint64(0)
			if err != nil || v == 0 {
				return
			}
			if err := w.WriteUint64(0, v-1); err != nil {
				log.Fatal(err)
			}
		case "stock?":
			v, _ := w.ReadUint64(0)
			if err := w.Send(m.Sender, v); err != nil {
				log.Fatal(err)
			}
		}
	})

	rt.GoRoot("shop", 1024, func(w *altrun.World) {
		// Seed the stock: 5 units, committed (the root is not
		// speculative, so these messages are accepted outright).
		for i := 0; i < 5; i++ {
			if err := w.Send(inventory.PID(), "restock"); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println("stock seeded: 5 units")

		// Two fulfilment strategies race; each RESERVES A UNIT while
		// still speculative. The server cannot know which strategy
		// will win — so it forks a version per possibility.
		res, err := w.RunAlt(altrun.Options{SyncElimination: true},
			altrun.Alt{Name: "same-day-courier", Body: func(cw *altrun.World) error {
				if err := cw.Send(inventory.PID(), "reserve"); err != nil {
					return err
				}
				cw.Compute(3 * time.Second) // expensive route planning
				return nil
			}},
			altrun.Alt{Name: "next-day-post", Body: func(cw *altrun.World) error {
				if err := cw.Send(inventory.PID(), "reserve"); err != nil {
					return err
				}
				cw.Compute(1 * time.Second) // cheap: wins
				return nil
			}},
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("winner: %s\n", res.Name)

		w.Sleep(time.Minute) // let resolution settle

		// Exactly one server timeline survives, with exactly ONE unit
		// reserved — both alternatives sent "reserve", but they were
		// mutually exclusive worlds.
		if err := w.Send(inventory.PID(), "stock?"); err != nil {
			log.Fatal(err)
		}
		reply, ok := w.Recv(time.Minute)
		if !ok {
			log.Fatal("no reply from surviving inventory version")
		}
		fmt.Printf("surviving stock: %d units (5 - the winner's single reservation)\n", reply.Data)

		st := rt.MsgStats()
		fmt.Printf("\nmessage layer: %d sent (one per send), %d accepted, %d ignored (dead worlds), %d splits (decided per version)\n",
			st.Sent, st.Accepted, st.Ignored, st.Splits)
		fmt.Printf("server versions alive: %d (one timeline)\n", len(rt.Copies(inventory.PID())))

		rt.Shutdown(inventory) // the receive loop and every version
	})
	if err := rt.Run(); err != nil {
		log.Fatal(err)
	}
}
