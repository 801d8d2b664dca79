package main

import (
	"fmt"
	"math/rand"
	"time"

	"rockcress/internal/msg"
	"rockcress/internal/noc"
)

// nocMicro drives one mesh plane from outside through its public API with
// synthetic traffic and returns host ns per flit-hop, summed over an 8x8
// and a 16x16 fabric. Each tile offers a flit with probability 1/8 per
// cycle; uniform traffic picks any other node, hotspot traffic sends half
// its flits to LLC bank 0. Destinations are drawn before timing starts.
func nocMicro(seed int64, hotspot bool) (float64, error) {
	var ns, hops int64
	for _, f := range []struct{ w, h, banks, cycles int }{{8, 8, 16, 6000}, {16, 16, 32, 1500}} {
		m, err := noc.New(f.w, f.h, f.banks, 4, func(int, *msg.Message) bool { return true })
		if err != nil {
			return 0, err
		}
		space := m.Space()
		tiles, nodes := space.Cores, space.Nodes()
		r := rand.New(rand.NewSource(seed))
		// One pre-drawn destination (or -1 for no offer) per tile and cycle
		// of a pattern replayed cyclically.
		const patCycles = 512
		pat := make([]int, patCycles*tiles)
		for i := range pat {
			src := i % tiles
			switch {
			case r.Intn(8) != 0:
				pat[i] = -1
			case hotspot && r.Intn(2) == 0:
				pat[i] = space.LLCNode(0)
			default:
				d := r.Intn(nodes - 1)
				if d >= src {
					d++
				}
				pat[i] = d
			}
		}
		run := func(cycles int) {
			for c := 0; c < cycles; c++ {
				row := pat[(c%patCycles)*tiles : (c%patCycles+1)*tiles]
				for src, dst := range row {
					if dst >= 0 {
						m.TrySend(msg.Message{Src: src, Dst: dst, Kind: msg.KindLoadResp})
					}
				}
				m.Tick()
			}
		}
		run(patCycles) // fill queues and grow the mesh's scratch
		h0 := m.Hops
		t := time.Now()
		run(f.cycles)
		ns += int64(time.Since(t))
		hops += m.Hops - h0
		if err := m.Err(); err != nil {
			return 0, err
		}
	}
	if hops == 0 {
		return 0, fmt.Errorf("noc micro moved no flits")
	}
	return float64(ns) / float64(hops), nil
}
