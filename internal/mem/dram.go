package mem

import (
	"fmt"
	"math"
)

// DRAM models the paper's fixed-latency, fixed-bandwidth main memory: one
// shared channel whose bandwidth is a hard cap (16 GB/s = 16 B/cycle at
// 1 GHz by default). Requests serialize on channel occupancy; each transfer
// additionally pays the fixed access latency.
type DRAM struct {
	latency     int64
	bytesPerCyc int64
	channelFree int64

	// inFlight is a binary min-heap of scheduled operations keyed by
	// (doneAt, lineAddr, seq). Completed pops only what is due, so a
	// cycle costs O(completed · log n), not O(n). seq is the schedule
	// order: it breaks (doneAt, lineAddr) ties first-scheduled-first.
	// Fault-free doneAt already rises with seq, but a dramdegrade window
	// that ends lets later ops overtake earlier ones, hence a heap rather
	// than a FIFO.
	inFlight []dramOp
	seq      uint64

	// Reusable scratch (steady state allocates nothing): fills backs
	// Completed's return value, dataPool recycles writeback payloads.
	fills    []Fill
	dataPool [][]uint32

	// Degradation window (a dramdegrade fault): accesses scheduled in
	// [degradeFrom, degradeUntil) pay latency scaled by degradeFactor.
	// degradeUntil 0 with a factor set means the degradation is permanent.
	degradeFrom   int64
	degradeUntil  int64
	degradeFactor float64

	// Stats.
	Reads, Writes int64
	BusyCycles    int64
	DegradedOps   int64 // accesses scheduled at degraded latency
}

type dramOp struct {
	doneAt   int64
	seq      uint64
	data     []uint32 // writeback payload
	bank     int
	lineAddr uint32
	write    bool
}

// before is the heap order: completion time, then line address, then
// schedule order.
func (a *dramOp) before(b *dramOp) bool {
	if a.doneAt != b.doneAt {
		return a.doneAt < b.doneAt
	}
	if a.lineAddr != b.lineAddr {
		return a.lineAddr < b.lineAddr
	}
	return a.seq < b.seq
}

// NewDRAM builds a channel with the given access latency (cycles) and
// bandwidth (bytes per cycle). Both come from the user's configuration, so
// bad values are validated errors, not panics.
func NewDRAM(latency, bytesPerCycle int) (*DRAM, error) {
	if latency < 0 || bytesPerCycle <= 0 {
		return nil, fmt.Errorf("mem: invalid DRAM parameters (latency %d, bandwidth %d B/cycle)",
			latency, bytesPerCycle)
	}
	return &DRAM{latency: int64(latency), bytesPerCyc: int64(bytesPerCycle)}, nil
}

// schedule books a transfer and returns its completion time plus the
// decomposition the causal profiler attributes: queue is channel-occupancy
// wait and transfer serialization (everything bandwidth-shaped), lat the
// (possibly degraded) access latency.
func (d *DRAM) schedule(now int64, bytes int) (doneAt, queue, lat int64) {
	start := now
	if d.channelFree > start {
		start = d.channelFree
	}
	transfer := (int64(bytes) + d.bytesPerCyc - 1) / d.bytesPerCyc
	d.channelFree = start + transfer
	d.BusyCycles += transfer
	latency := d.latency
	if d.degradeFactor > 1 && now >= d.degradeFrom &&
		(d.degradeUntil == 0 || now < d.degradeUntil) {
		latency = int64(float64(latency) * d.degradeFactor)
		d.DegradedOps++
	}
	return start + latency + transfer, start - now + transfer, latency
}

// Degrade arms a latency-degradation window (the dramdegrade fault):
// accesses scheduled in [from, until) pay factor times the configured
// latency; until 0 makes it permanent. A later call replaces the window —
// the model is one sick channel, not a stack of afflictions.
func (d *DRAM) Degrade(from, until int64, factor float64) {
	d.degradeFrom, d.degradeUntil, d.degradeFactor = from, until, factor
}

// Read schedules a line fill for bank; the completion surfaces from
// Completed once the channel and latency allow. The return values
// decompose the fill's lifetime for the causal profiler — queue cycles
// (channel wait + transfer) and latency cycles — and may be ignored.
func (d *DRAM) Read(now int64, lineAddr uint32, lineBytes, bank int) (queue, lat int64) {
	done, queue, lat := d.schedule(now, lineBytes)
	d.Reads++
	d.push(dramOp{doneAt: done, lineAddr: lineAddr, bank: bank})
	return queue, lat
}

// Write schedules a dirty-line writeback. The data lands in the backing
// store when the transfer completes.
func (d *DRAM) Write(now int64, lineAddr uint32, data []uint32, bank int) {
	done, _, _ := d.schedule(now, len(data)*4)
	d.Writes++
	var cp []uint32
	if n := len(d.dataPool); n > 0 {
		cp = d.dataPool[n-1][:0]
		d.dataPool[n-1] = nil
		d.dataPool = d.dataPool[:n-1]
	}
	cp = append(cp, data...)
	d.push(dramOp{doneAt: done, lineAddr: lineAddr, bank: bank, write: true, data: cp})
}

// push stamps op with the next schedule sequence number and sifts it up.
func (d *DRAM) push(op dramOp) {
	op.seq = d.seq
	d.seq++
	h := append(d.inFlight, op)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	d.inFlight = h
}

// pop removes the heap top into *op.
func (d *DRAM) pop(op *dramOp) {
	h := d.inFlight
	*op = h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = dramOp{} // drop the payload reference from the vacated slot
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	d.inFlight = h
}

// Fill is a completed line read.
type Fill struct {
	LineAddr uint32
	Bank     int
}

// Completed drains operations that finish at or before now. Write
// completions are applied to g; read completions are returned so the owning
// bank can install the line. Results are ordered by completion time, then
// address, then schedule order, for determinism. The returned slice is
// owned by the DRAM and valid only until the next call.
func (d *DRAM) Completed(now int64, g *Global) []Fill {
	fills := d.fills[:0]
	var op dramOp
	for len(d.inFlight) > 0 && d.inFlight[0].doneAt <= now {
		d.pop(&op)
		if op.write {
			g.WriteLine(op.lineAddr, op.data)
			d.dataPool = append(d.dataPool, op.data)
			continue
		}
		fills = append(fills, Fill{LineAddr: op.lineAddr, Bank: op.bank})
	}
	d.fills = fills
	return fills
}

// Pending reports the number of in-flight operations (used by the machine's
// quiescence check).
func (d *DRAM) Pending() int { return len(d.inFlight) }

// NextDoneAt returns the earliest completion time of any in-flight
// operation, or math.MaxInt64 when the channel is empty. It feeds the
// machine's idle fast-forward event horizon.
func (d *DRAM) NextDoneAt() int64 {
	if len(d.inFlight) == 0 {
		return math.MaxInt64
	}
	return d.inFlight[0].doneAt
}
