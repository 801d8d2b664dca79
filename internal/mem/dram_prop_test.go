package mem

import (
	"math"
	"math/rand"
	"testing"
)

// refDRAM is the retirement oracle: the channel model kept as a flat
// in-flight list that Completed scans every call, stable-sorting the due
// ops by (doneAt, lineAddr). Ties beyond that fall to schedule order
// because the list is kept in schedule order and the sort is stable.
type refDRAM struct {
	latency, bytesPerCyc, channelFree int64
	degradeFrom, degradeUntil         int64
	degradeFactor                     float64
	inFlight                          []dramOp
}

func (r *refDRAM) schedule(now int64, bytes int) int64 {
	start := max(now, r.channelFree)
	transfer := (int64(bytes) + r.bytesPerCyc - 1) / r.bytesPerCyc
	r.channelFree = start + transfer
	latency := r.latency
	if r.degradeFactor > 1 && now >= r.degradeFrom &&
		(r.degradeUntil == 0 || now < r.degradeUntil) {
		latency = int64(float64(latency) * r.degradeFactor)
	}
	return start + latency + transfer
}

func (r *refDRAM) read(now int64, lineAddr uint32, lineBytes, bank int) {
	r.inFlight = append(r.inFlight, dramOp{doneAt: r.schedule(now, lineBytes), lineAddr: lineAddr, bank: bank})
}

func (r *refDRAM) write(now int64, lineAddr uint32, data []uint32, bank int) {
	cp := append([]uint32(nil), data...)
	r.inFlight = append(r.inFlight, dramOp{doneAt: r.schedule(now, 4*len(data)), lineAddr: lineAddr,
		bank: bank, write: true, data: cp})
}

func (r *refDRAM) completed(now int64, g *Global) []Fill {
	var done, rest []dramOp
	for _, op := range r.inFlight {
		if op.doneAt <= now {
			done = append(done, op)
		} else {
			rest = append(rest, op)
		}
	}
	r.inFlight = rest
	for i := 1; i < len(done); i++ {
		op := done[i]
		j := i - 1
		for j >= 0 && (done[j].doneAt > op.doneAt ||
			(done[j].doneAt == op.doneAt && done[j].lineAddr > op.lineAddr)) {
			done[j+1] = done[j]
			j--
		}
		done[j+1] = op
	}
	var fills []Fill
	for _, op := range done {
		if op.write {
			g.WriteLine(op.lineAddr, op.data)
		} else {
			fills = append(fills, Fill{LineAddr: op.lineAddr, Bank: op.bank})
		}
	}
	return fills
}

func (r *refDRAM) nextDoneAt() int64 {
	next := int64(math.MaxInt64)
	for _, op := range r.inFlight {
		next = min(next, op.doneAt)
	}
	return next
}

// TestDRAMRetirementMatchesOracle drives the heap-backed DRAM and the
// scan-and-sort oracle with the same random interleaving of reads and
// writebacks, under degradation windows that raise latency and then drop
// it mid-stream (so later-scheduled ops overtake earlier ones), and with
// completion polls at irregular gaps (so one poll retires a batch, as
// after an idle fast-forward). Every poll must retire the same fills in
// the same order and leave the backing store, the pending count and the
// event horizon identical.
func TestDRAMRetirementMatchesOracle(t *testing.T) {
	const lineBytes = 64
	overtakes, ties := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		latency, bw := 10+rng.Intn(60), 1+rng.Intn(16)
		d, err := NewDRAM(latency, bw)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refDRAM{latency: int64(latency), bytesPerCyc: int64(bw)}
		g, _ := NewGlobal(1 << 16)
		gRef, _ := NewGlobal(1 << 16)
		lastDone := int64(-1)
		var now int64
		for step := 0; step < 600; step++ {
			switch rng.Intn(40) {
			case 0: // raise latency from now on, for a while or for good
				until := now + int64(rng.Intn(400))
				if rng.Intn(4) == 0 {
					until = 0
				}
				f := 1.5 + 3*rng.Float64()
				d.Degrade(now, until, f)
				ref.degradeFrom, ref.degradeUntil, ref.degradeFactor = now, until, f
			case 1: // heal
				d.Degrade(0, 0, 0)
				ref.degradeFrom, ref.degradeUntil, ref.degradeFactor = 0, 0, 0
			}
			for n := rng.Intn(3); n > 0; n-- {
				// Few distinct lines, so equal (doneAt, lineAddr) pairs occur.
				la := uint32(rng.Intn(8)) * lineBytes
				bank := rng.Intn(4)
				if rng.Intn(3) == 0 {
					data := make([]uint32, lineBytes/4)
					for i := range data {
						data[i] = rng.Uint32()
					}
					d.Write(now, la, data, bank)
					ref.write(now, la, data, bank)
				} else {
					d.Read(now, la, lineBytes, bank)
					ref.read(now, la, lineBytes, bank)
				}
				last := &ref.inFlight[len(ref.inFlight)-1]
				if last.doneAt < lastDone {
					overtakes++
				} else {
					lastDone = last.doneAt
				}
				for i := range ref.inFlight[:len(ref.inFlight)-1] {
					if op := &ref.inFlight[i]; op.doneAt == last.doneAt && op.lineAddr == last.lineAddr {
						ties++
					}
				}
			}
			if got, want := d.NextDoneAt(), ref.nextDoneAt(); got != want {
				t.Fatalf("seed %d cycle %d: NextDoneAt %d, oracle %d", seed, now, got, want)
			}
			got := append([]Fill(nil), d.Completed(now, g)...)
			want := ref.completed(now, gRef)
			if len(got) != len(want) {
				t.Fatalf("seed %d cycle %d: retired %v, oracle %v", seed, now, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d cycle %d: retired %v, oracle %v", seed, now, got, want)
				}
			}
			if d.Pending() != len(ref.inFlight) {
				t.Fatalf("seed %d cycle %d: %d pending, oracle %d", seed, now, d.Pending(), len(ref.inFlight))
			}
			sameStore(t, g, gRef, 8*lineBytes)
			now += 1 + int64(rng.Intn(3)*rng.Intn(20))
		}
		// Drain and compare the backing stores word for word.
		for d.Pending() > 0 || len(ref.inFlight) > 0 {
			now = max(now, ref.nextDoneAt())
			d.Completed(now, g)
			ref.completed(now, gRef)
		}
		sameStore(t, g, gRef, 8*lineBytes)
	}
	if overtakes == 0 {
		t.Fatal("no op completed before an earlier-scheduled one: degradation windows never reordered the channel")
	}
	if ties == 0 {
		t.Fatal("no two ops shared (doneAt, lineAddr): the schedule-order tie-break went untested")
	}
}

func sameStore(t *testing.T, g, ref *Global, bytes uint32) {
	t.Helper()
	for a := uint32(0); a < bytes; a += 4 {
		if g.ReadWord(a) != ref.ReadWord(a) {
			t.Fatalf("word %#x = %#x, oracle %#x", a, g.ReadWord(a), ref.ReadWord(a))
		}
	}
}
