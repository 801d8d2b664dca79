package mem

import (
	"math/rand"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

// bank0Line is the address of the i-th line owned by bank 0 under the
// default line striping.
func bank0Line(i int) uint32 {
	cfg := config.ManycoreDefault()
	return uint32(i * cfg.LLCBanks * cfg.CacheLineBytes)
}

func loadReq(addr uint32, slot int) *msg.Message {
	return &msg.Message{Kind: msg.KindLoadReq, Src: 1, Dst: 64, Addr: addr, Words: 1, LQSlot: slot}
}

// blockOnMSHRs fills every MSHR of a fresh bank with a distinct miss and
// queues one more miss to a new line behind them, ticking until that head
// has been refused. It returns the cycle after the refusal.
func blockOnMSHRs(t *testing.T, b *LLCBank) int64 {
	t.Helper()
	cfg := config.ManycoreDefault()
	var now int64
	for i := 0; i < cfg.LLCMSHRs; i++ {
		b.Accept(loadReq(bank0Line(i), i))
		b.Tick(now)
		now++
	}
	b.Accept(loadReq(bank0Line(cfg.LLCMSHRs), cfg.LLCMSHRs))
	b.Tick(now)
	now++
	if !b.headBlocked || b.reqCount != 1 {
		t.Fatalf("head not refused with every MSHR busy (blocked %v, queued %d)", b.headBlocked, b.reqCount)
	}
	return now
}

// TestLLCBlockedHeadSleepsUntilFill: a miss to a new line behind a full
// MSHR file is refused once and then not looked at again — the bank parks
// — until the Install that frees an MSHR, which serves it that same cycle.
func TestLLCBlockedHeadSleepsUntilFill(t *testing.T) {
	b, g, d, _, st := newBank(t)
	now := blockOnMSHRs(t, b)
	if ok, _ := b.Park(now - 1); !ok {
		t.Fatal("bank with a blocked head and no response stream does not park")
	}

	// Free an MSHR behind the bank's back: a bank that re-evaluated its
	// head would now serve it. The blocked bank must not look.
	accesses := st.Accesses
	b.mshr[0].busy = false
	for i := 0; i < 5; i++ {
		b.Tick(now)
		now++
	}
	if b.reqCount != 1 || st.Accesses != accesses {
		t.Fatal("blocked head was re-evaluated without an unblocking event")
	}
	b.mshr[0].busy = true

	// The first fill's Install frees an MSHR; the head takes it that cycle.
	for ; now < 1000; now++ {
		fills := d.Completed(now, g)
		for _, f := range fills {
			b.Install(now, f.LineAddr)
		}
		reads := d.Reads
		b.Tick(now)
		if len(fills) == 0 {
			if b.reqCount != 1 {
				t.Fatalf("cycle %d: head served with no fill", now)
			}
			continue
		}
		if b.reqCount != 0 || d.Reads != reads+1 || b.headBlocked {
			t.Fatalf("cycle %d: head not served on the Install cycle (queued %d, new reads %d)",
				now, b.reqCount, d.Reads-reads)
		}
		return
	}
	t.Fatal("no fill arrived")
}

// TestLLCBlockedHitResumesAfterPopJob: a hit refused because the response
// jobs are full stays blocked while the stream is gated, and is served the
// cycle after the stream retires a job.
func TestLLCBlockedHitResumesAfterPopJob(t *testing.T) {
	b, g, d, out, _ := newBank(t)
	cfg := config.ManycoreDefault()
	b.Accept(loadReq(0, 0))
	runBank(b, d, g, 200) // line 0 now resident
	out.msgs = out.msgs[:0]

	out.full = true
	now := int64(200)
	for i := 0; i < cfg.LLCRespJobs; i++ {
		b.Accept(loadReq(0, i))
		b.Tick(now)
		now++
	}
	b.Accept(loadReq(0, cfg.LLCRespJobs))
	b.Tick(now)
	now++
	if !b.headBlocked || b.jobCount != cfg.LLCRespJobs {
		t.Fatalf("hit not refused on full response jobs (blocked %v, jobs %d)", b.headBlocked, b.jobCount)
	}
	if ok, _ := b.Park(now - 1); ok {
		t.Fatal("bank with a response stream parked")
	}

	out.full = false
	b.Tick(now) // the stream pops a job; the head waits for the next cycle
	now++
	if b.headBlocked || b.reqCount != 1 || b.jobCount != cfg.LLCRespJobs-1 {
		t.Fatalf("after popJob: blocked %v, queued %d, jobs %d", b.headBlocked, b.reqCount, b.jobCount)
	}
	b.Tick(now)
	if b.reqCount != 0 {
		t.Fatal("head not served the cycle after popJob")
	}
}

// TestLLCDecommissionClearsBlockedHead: a killbank decommission drains a
// bank whose head is blocked and leaves it parkable with the flag clear.
func TestLLCDecommissionClearsBlockedHead(t *testing.T) {
	b, _, _, _, _ := newBank(t)
	cfg := config.ManycoreDefault()
	blockOnMSHRs(t, b)
	emitted := 0
	b.Decommission(func(msg.Message) { emitted++ })
	if b.headBlocked {
		t.Fatal("decommission left the head-blocked flag set")
	}
	if emitted != cfg.LLCMSHRs+1 {
		t.Fatalf("decommission emitted %d requests, want %d", emitted, cfg.LLCMSHRs+1)
	}
	if ok, _ := b.Park(0); !ok || b.Busy() {
		t.Fatal("decommissioned bank is not idle")
	}
}

// TestLLCBlockedHeadMatchesEagerRetry runs two banks on identical random
// traffic, one as built and one whose head flag is cleared before every
// tick (re-evaluating a blocked head every cycle). Small MSHR and job
// counts plus a sender that refuses at random keep heads blocked often.
// Every response, in content and cycle, and every counter must agree.
func TestLLCBlockedHeadMatchesEagerRetry(t *testing.T) {
	cfg := config.ManycoreDefault()
	cfg.LLCMSHRs, cfg.LLCRespJobs = 2, 2
	cfg.DRAMBandwidth = 4
	type sent struct {
		at int64
		m  msg.Message
	}
	type side struct {
		b   *LLCBank
		g   *Global
		d   *DRAM
		out *sink
		st  *stats.LLC
		log []sent
	}
	build := func() *side {
		s := &side{out: &sink{}, st: &stats.LLC{}}
		s.g, _ = NewGlobal(1 << 20)
		s.d, _ = NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth)
		s.b, _ = NewLLCBank(0, cfg, 64, s.out, s.d, s.g, nolanes{}, s.st)
		return s
	}
	blocked := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, eager := build(), build()
		for now := int64(0); now < 4000; now++ {
			full := rng.Intn(4) == 0
			var req *msg.Message
			if rng.Intn(2) == 0 {
				a := bank0Line(rng.Intn(600)) + 4*uint32(rng.Intn(16))
				if rng.Intn(3) == 0 {
					req = &msg.Message{Kind: msg.KindStoreReq, Src: 1, Dst: 64, Addr: a,
						Vals: [msg.MaxWords]uint32{rng.Uint32()}, Words: 1}
				} else {
					req = loadReq(a, int(now))
				}
			}
			for _, s := range []*side{lazy, eager} {
				for _, f := range s.d.Completed(now, s.g) {
					s.b.Install(now, f.LineAddr)
				}
				if req != nil && s.b.CanAccept() {
					s.b.Accept(req)
				}
				if s == eager {
					s.b.headBlocked = false
				} else if s.b.headBlocked {
					blocked++
				}
				s.out.full = full
				s.b.Tick(now)
				for _, m := range s.out.msgs {
					s.log = append(s.log, sent{now, m})
				}
				s.out.msgs = s.out.msgs[:0]
			}
		}
		if len(lazy.log) != len(eager.log) {
			t.Fatalf("seed %d: %d responses, eager retry %d", seed, len(lazy.log), len(eager.log))
		}
		for i := range lazy.log {
			if lazy.log[i] != eager.log[i] {
				t.Fatalf("seed %d: response %d = %+v, eager retry %+v", seed, i, lazy.log[i], eager.log[i])
			}
		}
		if *lazy.st != *eager.st || lazy.d.Reads != eager.d.Reads || lazy.d.Writes != eager.d.Writes {
			t.Fatalf("seed %d: counters diverge: %+v vs %+v", seed, *lazy.st, *eager.st)
		}
		if err := lazy.b.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if blocked == 0 {
		t.Fatal("no head ever blocked: the traffic does not exercise the flag")
	}
}
