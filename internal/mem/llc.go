package mem

import (
	"fmt"
	"math"

	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

// GroupLanes resolves a vector group's lane index to a tile id. The scalar
// core's memory unit attaches the group id to wide access packets; the LLC
// uses the layout to steer each response word (paper §3.4).
type GroupLanes interface {
	LaneTile(group, lane int) (int, bool)
}

// Sender injects a message into the NoC at the bank's node. TrySend returns
// false when the local injection queue is full; the bank retries next cycle.
type Sender interface {
	TrySend(m msg.Message) bool
}

type llcLine struct {
	valid bool
	dirty bool
	addr  uint32 // full line address (tag)
	data  []uint32
}

type wordWrite struct {
	off int // word offset within the line
	val uint32
}

// mshrEvent is one queued request against a missing line. Events replay in
// arrival order at fill time so a waiting load never observes a store that
// reached the bank after it.
type mshrEvent struct {
	isStore bool
	store   wordWrite
	req     msg.Message
}

type llcMSHR struct {
	busy     bool
	lineAddr uint32
	events   []mshrEvent

	// Causal stamps of this MSHR's line fill (populated only with causal
	// recording on): the DRAM schedule decomposition, copied into every
	// replayed request at Install so responses carry the full journey.
	cDramQ, cDramLat int32
}

// respJob streams one wide access's words out of the bank. The bank owns a
// single response counter, so jobs serialize (paper: "we add a counter to
// each cache, which it uses to serially generate responses").
type respJob struct {
	req    msg.Message
	kStart int      // first global word index this bank serves
	data   []uint32 // snapshot of the served words
	sent   int
	// start is the cycle the job reached the stream head (-1 until then;
	// 0 with causal recording off). Everything between the request's bank
	// arrival and start is queue wait, stamped CLlcQ; bank count scales
	// it, per-access service it does not.
	start int64
}

// LLCBank is one slice of the shared last-level cache. Banks partition the
// address space by line striping and are write-back with tree pseudo-LRU
// replacement.
type LLCBank struct {
	ID   int
	node int

	cfg       config.Manycore
	lineBytes int
	lineWords int
	ways      int
	sets      int

	lines []llcLine // sets*ways
	plru  []uint8   // tree-PLRU state per set

	// reqQ is a fixed-capacity ring (LLCReqQueue entries): the queue bound
	// is architectural, so steady state never reallocates it.
	reqQ     []msg.Message
	reqHead  int
	reqCount int

	mshr []llcMSHR

	// jobs is a growable ring: the hit path is capped at LLCRespJobs, but
	// Install may queue the waiters of a whole MSHR past the cap (bounding
	// only the hit path keeps the bank deadlock-free), so the ring grows on
	// demand and then stays at its high-water capacity.
	jobs     []respJob
	jobHead  int
	jobCount int

	// headBlocked latches a refusal of the head request: handleLoad or
	// handleStore found every MSHR busy or the hit-path job cap reached.
	// Until one of the events that can change that verdict — Install (frees
	// an MSHR, may evict the head's line), popJob (frees a job slot),
	// Decommission (empties the bank) — re-evaluating the same head is a
	// no-op, so processRequest skips it and Park lets a bank with nothing
	// streaming sleep until the fill's wake. The head itself cannot change
	// meanwhile: only serving it pops it.
	headBlocked bool

	// dataPool recycles respJob word buffers (lineWords capacity each): a
	// popped job's buffer is returned here and reused by the next makeJob,
	// so streaming allocates nothing once warm. Buffers are bank-owned; a
	// job's data is never referenced after its pop.
	dataPool [][]uint32

	// pendingReads buffers DRAM line-fill requests issued during Propose.
	// The DRAM channel serializes on occupancy, so the issue order is
	// architecturally visible; Commit flushes these in bank order, which is
	// exactly the order the serial engine issued them in.
	pendingReads []uint32

	out    Sender
	dram   *DRAM
	global *Global
	groups GroupLanes
	st     *stats.LLC

	// watch, when nonzero, logs accesses to one word address (the old
	// ROCKTRACE=<addr> debugging aid, now per-instance).
	watch uint32

	// causal gates journey stamping for the causal profiler: with it off
	// (the default) responses leave with zero stamps and the bank does no
	// extra work, keeping goldens bit-identical.
	causal bool
	// blocked counts cycles the head response flit failed to inject
	// (response-plane backpressure; causal-only). Accept snapshots it into
	// the request's CInject slot, and stampResp emits the delta as the
	// response's CGated stamp, so every cycle the bank spent gated on the
	// mesh — including time a request waited behind other mesh-gated jobs
	// — books as NoC congestion rather than LLC service.
	blocked int64

	err error
}

// NewLLCBank builds bank id of the configured cache. The geometry derives
// from the user's configuration, so a bad shape is a validated error, not a
// panic (config.Manycore.Validate normally rejects it first).
func NewLLCBank(id int, cfg config.Manycore, node int, out Sender, dram *DRAM, global *Global, groups GroupLanes, st *stats.LLC) (*LLCBank, error) {
	perBank := cfg.LLCBytes / cfg.LLCBanks
	ways := cfg.LLCWays
	sets := perBank / (cfg.CacheLineBytes * ways)
	if sets < 1 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: llc sets %d must be a power of two (%d B over %d banks, %d-way, %d B lines)",
			sets, cfg.LLCBytes, cfg.LLCBanks, ways, cfg.CacheLineBytes)
	}
	b := &LLCBank{
		ID: id, node: node, cfg: cfg,
		lineBytes: cfg.CacheLineBytes, lineWords: cfg.CacheLineBytes / 4,
		ways: ways, sets: sets,
		lines: make([]llcLine, sets*ways),
		plru:  make([]uint8, sets),
		mshr:  make([]llcMSHR, cfg.LLCMSHRs),
		reqQ:  make([]msg.Message, cfg.LLCReqQueue),
		jobs:  make([]respJob, cfg.LLCRespJobs),
		out:   out, dram: dram, global: global, groups: groups, st: st,
	}
	for i := range b.lines {
		b.lines[i].data = make([]uint32, b.lineWords)
	}
	return b, nil
}

// SetWatchAddr arms ad-hoc logging of one word address (0 disarms).
func (b *LLCBank) SetWatchAddr(addr uint32) { b.watch = addr }

// Err returns the first invariant violation the bank observed, if any.
func (b *LLCBank) Err() error { return b.err }

func (b *LLCBank) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("llc bank %d: %s", b.ID, fmt.Sprintf(format, args...))
	}
}

// CanAccept reports whether the request queue has room.
func (b *LLCBank) CanAccept() bool { return b.reqCount < len(b.reqQ) }

// Accept enqueues an incoming request (the machine delivers NoC arrivals).
func (b *LLCBank) Accept(m *msg.Message) {
	if !b.CanAccept() {
		b.fail("accept on full request queue")
		return
	}
	if b.causal {
		// Park the bank-blocked snapshot in the request's (unused) CInject
		// slot; stampResp turns the delta into the CGated stamp.
		m.CInject = b.blocked
	}
	b.reqQ[(b.reqHead+b.reqCount)%len(b.reqQ)] = *m
	b.reqCount++
}

// popReq consumes the head request.
func (b *LLCBank) popReq() {
	b.reqHead = (b.reqHead + 1) % len(b.reqQ)
	b.reqCount--
}

// pushJob appends a response job slot, growing the ring if full (Install
// may burst past the hit-path cap), and returns it for the caller to fill.
func (b *LLCBank) pushJob() *respJob {
	if b.jobCount == len(b.jobs) {
		grown := make([]respJob, 2*len(b.jobs)+1)
		for i := 0; i < b.jobCount; i++ {
			grown[i] = b.jobs[(b.jobHead+i)%len(b.jobs)]
		}
		b.jobs = grown
		b.jobHead = 0
	}
	j := &b.jobs[(b.jobHead+b.jobCount)%len(b.jobs)]
	b.jobCount++
	return j
}

// popJob retires the head job, returning its word buffer to the pool.
func (b *LLCBank) popJob() {
	j := &b.jobs[b.jobHead]
	b.dataPool = append(b.dataPool, j.data[:0])
	j.data = nil
	b.jobHead = (b.jobHead + 1) % len(b.jobs)
	b.jobCount--
	b.headBlocked = false
}

// getData takes an n-word buffer from the pool (n never exceeds lineWords).
func (b *LLCBank) getData(n int) []uint32 {
	if last := len(b.dataPool) - 1; last >= 0 {
		d := b.dataPool[last]
		b.dataPool = b.dataPool[:last]
		return d[:n]
	}
	d := make([]uint32, b.lineWords)
	return d[:n]
}

// Busy reports whether the bank has buffered work (quiescence check).
func (b *LLCBank) Busy() bool {
	if b.reqCount > 0 || b.jobCount > 0 {
		return true
	}
	for i := range b.mshr {
		if b.mshr[i].busy {
			return true
		}
	}
	return false
}

func (b *LLCBank) lineAddrOf(addr uint32) uint32 {
	return addr &^ uint32(b.lineBytes-1)
}

func (b *LLCBank) setOf(lineAddr uint32) int {
	lineNum := int(lineAddr) / b.lineBytes
	return (lineNum / b.cfg.LLCBanks) & (b.sets - 1)
}

// lookup returns the way holding lineAddr, or -1.
func (b *LLCBank) lookup(lineAddr uint32) int {
	set := b.setOf(lineAddr)
	for w := 0; w < b.ways; w++ {
		l := &b.lines[set*b.ways+w]
		if l.valid && l.addr == lineAddr {
			return w
		}
	}
	return -1
}

// touch updates tree-PLRU state so way is most-recently used.
func (b *LLCBank) touch(set, way int) {
	bits := b.plru[set]
	node, lo, hi := 0, 0, b.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << node // 1 means "recent on left, evict right"
			node = 2*node + 1
			hi = mid
		} else {
			bits &^= 1 << node
			node = 2*node + 2
			lo = mid
		}
	}
	b.plru[set] = bits
}

// victim picks the pseudo-LRU way of a set, preferring invalid ways.
func (b *LLCBank) victim(set int) int {
	for w := 0; w < b.ways; w++ {
		if !b.lines[set*b.ways+w].valid {
			return w
		}
	}
	bits := b.plru[set]
	node, lo, hi := 0, 0, b.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<node) != 0 { // left is recent: evict right
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// portion computes the global word-index range [kStart, kEnd) of the
// combined access block that THIS request serves, and the line address it
// reads. For the aligned variants that is the whole block; the unaligned
// Suffix/Prefix pair split a block that straddles a line boundary (§2.3.2).
func (b *LLCBank) portion(m *msg.Message) (lineAddr uint32, kStart, kEnd int, ok bool) {
	if m.Addr%4 != 0 {
		b.fail("unaligned word address %#x", m.Addr)
		return 0, 0, 0, false
	}
	la := b.lineAddrOf(m.Addr)
	skew := int(m.Addr-la) / 4
	total := m.Words
	switch m.Vload.Part {
	case isa.VloadSuffix:
		cut := b.lineWords - skew
		if cut > total {
			cut = total
		}
		return la, 0, cut, true
	case isa.VloadPrefix:
		cut := b.lineWords - skew
		if cut >= total {
			return la + uint32(b.lineBytes), 0, 0, true // nothing to do
		}
		return la + uint32(b.lineBytes), cut, total, true
	default:
		if skew+total > b.lineWords {
			b.fail("aligned %s vload of %d words at %#x crosses a line; use the suffix/prefix pair",
				m.Vload.Dist, total, m.Addr)
			return 0, 0, 0, false
		}
		return la, 0, total, true
	}
}

// destOf resolves global word index k of a block to its destination tile
// and scratchpad byte offset: (Addr+Cnt) -> (BC + Cnt/RPC, BO + Cnt%RPC).
func (b *LLCBank) destOf(m *msg.Message, k int) (tile int, spadOff uint32, ok bool) {
	if m.Vload.Dist == isa.VloadSelf || m.Group < 0 {
		return m.ReqCore, m.SpadOff + uint32(4*k), true
	}
	rpc := m.Vload.Width
	lane := m.Vload.BaseLane + k/rpc
	off := m.SpadOff + uint32(4*(k%rpc))
	tile, found := b.groups.LaneTile(m.Group, lane)
	if !found {
		b.fail("vload lane %d not in group %d", lane, m.Group)
		return 0, 0, false
	}
	return tile, off, true
}

// Tick advances the bank one cycle: drain DRAM fills assigned to this bank
// (delivered by the machine through Install), process one request, and
// stream response words. Tick is the serial convenience form of
// Propose+Commit.
func (b *LLCBank) Tick(now int64) {
	b.Propose(now)
	b.Commit(now)
}

// Propose advances the bank's own state one cycle (sim.Component). Banks
// attached to distinct mesh routers may Propose concurrently: everything
// touched is bank-owned except response injection (router-disjoint by
// sharding) and the DRAM channel, whose order-sensitive reads are buffered
// for Commit.
func (b *LLCBank) Propose(now int64) {
	b.processRequest(now)
	b.streamResponses(now)
}

// Commit flushes DRAM reads buffered by Propose. The engine runs Commit
// serially in bank order, matching the serial engine's issue order on the
// shared channel.
func (b *LLCBank) Commit(now int64) {
	for _, la := range b.pendingReads {
		q, lat := b.dram.Read(now, la, b.lineBytes, b.ID)
		if b.causal {
			// Stamp the fill's decomposition on its MSHR (allocated earlier
			// this cycle or before; at most LLCMSHRs entries to scan).
			for i := range b.mshr {
				if b.mshr[i].busy && b.mshr[i].lineAddr == la {
					b.mshr[i].cDramQ, b.mshr[i].cDramLat = int32(q), int32(lat)
					break
				}
			}
		}
	}
	b.pendingReads = b.pendingReads[:0]
}

// SetCausal switches journey stamping for the causal profiler on or off.
// Recording changes no architectural state and no cycle counts.
func (b *LLCBank) SetCausal(on bool) { b.causal = on }

// Idle reports whether ticking the bank is a no-op: nothing queued and
// nothing streaming. A busy MSHR alone does not make the bank active — it
// is waiting on a DRAM completion, which the machine tracks through the
// DRAM's own event horizon. A blocked head still counts as queued here:
// idle fast-forward keeps this stricter test, so its skip statistics do
// not depend on head blocking.
func (b *LLCBank) Idle() bool {
	return b.reqCount == 0 && b.jobCount == 0
}

// Quiescent implements the sim.Component hint. The bank self-schedules
// nothing: fills arrive via the DRAM horizon, requests via the mesh.
func (b *LLCBank) Quiescent(now int64) (bool, int64) {
	if !b.Idle() {
		return false, 0
	}
	return true, math.MaxInt64
}

// Park implements sim.Sleeper: the tick of a bank with nothing streaming
// and either no request or a blocked head is a pure no-op. A busy MSHR
// only waits on a DRAM fill, and a blocked head on an Install or popJob;
// Install is a wake site and popJob needs a stream, so neither can pass
// unseen. Nothing to replay, so CatchUp is empty.
func (b *LLCBank) Park(now int64) (bool, int64) {
	if b.jobCount > 0 || (b.reqCount > 0 && !b.headBlocked) {
		return false, 0
	}
	return true, math.MaxInt64
}

// CatchUp implements sim.Sleeper: an idle bank accrues no bookkeeping.
func (b *LLCBank) CatchUp(n int64) {}

func (b *LLCBank) processRequest(now int64) {
	if b.reqCount == 0 || b.headBlocked || b.err != nil {
		return
	}
	m := &b.reqQ[b.reqHead]
	switch m.Kind {
	case msg.KindStoreReq:
		if !b.handleStore(now, m) {
			b.headBlocked = true
			return
		}
	case msg.KindLoadReq, msg.KindVloadReq:
		if !b.handleLoad(now, m) {
			b.headBlocked = true
			return
		}
	default:
		b.fail("unexpected message kind %s", m.Kind)
		return
	}
	b.popReq()
}

func (b *LLCBank) handleStore(now int64, m *msg.Message) bool {
	if b.watch != 0 && m.Addr == b.watch {
		fmt.Printf("[%d] bank%d STORE addr=%#x val=%d from core %d\n", now, b.ID, m.Addr, int32(m.Vals[0]), m.Src)
	}
	lineAddr := b.lineAddrOf(m.Addr)
	if w := b.lookup(lineAddr); w >= 0 {
		set := b.setOf(lineAddr)
		l := &b.lines[set*b.ways+w]
		l.data[(m.Addr-lineAddr)/4] = m.Vals[0]
		l.dirty = true
		b.touch(set, w)
		b.st.Accesses++
		b.st.StoreHits++
		return true
	}
	// Write-allocate: coalesce into an MSHR.
	mi, isNew := b.mshrFor(lineAddr)
	if mi < 0 {
		return false // no MSHR free: head-of-line stall
	}
	b.st.Accesses++
	b.st.StoreMisses++
	if isNew {
		b.st.Misses++
		b.pendingReads = append(b.pendingReads, lineAddr)
	}
	b.mshr[mi].events = append(b.mshr[mi].events, mshrEvent{
		isStore: true,
		store:   wordWrite{off: int((m.Addr - lineAddr) / 4), val: m.Vals[0]},
	})
	return true
}

func (b *LLCBank) handleLoad(now int64, m *msg.Message) bool {
	if b.watch != 0 && m.Kind == msg.KindLoadReq && m.Addr == b.watch {
		w := b.lookup(b.lineAddrOf(m.Addr))
		v := int32(-999)
		if w >= 0 {
			set := b.setOf(b.lineAddrOf(m.Addr))
			v = int32(b.lines[set*b.ways+w].data[(m.Addr-b.lineAddrOf(m.Addr))/4])
		}
		fmt.Printf("[%d] bank%d LOAD addr=%#x cached=%d from core %d\n", now, b.ID, m.Addr, v, m.Src)
	}
	lineAddr, kStart, kEnd, ok := b.portion(m)
	if !ok {
		return true // error already recorded; drop
	}
	if kEnd == kStart {
		return true // empty prefix portion: nothing to serve
	}
	if w := b.lookup(lineAddr); w >= 0 {
		if b.jobCount >= b.cfg.LLCRespJobs {
			return false // response queue full
		}
		set := b.setOf(lineAddr)
		b.touch(set, w)
		b.st.Accesses++
		if m.Kind == msg.KindVloadReq {
			b.st.WideReqs++
		}
		b.makeJob(m, &b.lines[set*b.ways+w], lineAddr, kStart, kEnd)
		return true
	}
	mi, isNew := b.mshrFor(lineAddr)
	if mi < 0 {
		return false
	}
	b.st.Accesses++
	b.st.Misses++
	if m.Kind == msg.KindVloadReq {
		b.st.WideReqs++
	}
	if isNew {
		b.pendingReads = append(b.pendingReads, lineAddr)
	}
	b.mshr[mi].events = append(b.mshr[mi].events, mshrEvent{req: *m})
	return true
}

// mshrFor returns the index of an MSHR tracking lineAddr, allocating one if
// needed. Returns (-1, false) when none is free.
func (b *LLCBank) mshrFor(lineAddr uint32) (int, bool) {
	free := -1
	for i := range b.mshr {
		if b.mshr[i].busy && b.mshr[i].lineAddr == lineAddr {
			return i, false
		}
		if !b.mshr[i].busy && free < 0 {
			free = i
		}
	}
	if free < 0 {
		return -1, false
	}
	// Field-wise reset keeps the events slice's capacity across reuses.
	b.mshr[free].busy = true
	b.mshr[free].lineAddr = lineAddr
	b.mshr[free].events = b.mshr[free].events[:0]
	return free, true
}

// makeJob queues a response job serving words [kStart, kEnd) of m's block
// from line l.
func (b *LLCBank) makeJob(m *msg.Message, l *llcLine, lineAddr uint32, kStart, kEnd int) {
	skewBase := b.lineAddrOf(m.Addr)
	var firstWordInLine int
	if lineAddr == skewBase {
		firstWordInLine = int(m.Addr-skewBase)/4 + kStart
	} else {
		firstWordInLine = 0 // prefix: starts at the head of the next line
	}
	n := kEnd - kStart
	data := b.getData(n)
	copy(data, l.data[firstWordInLine:firstWordInLine+n])
	j := b.pushJob()
	j.req = *m
	j.kStart, j.data, j.sent, j.start = kStart, data, 0, 0
	if b.causal {
		j.start = -1 // set when the job reaches the stream head
	}
}

// Install receives a completed DRAM fill for this bank: evict a victim,
// install the line, apply coalesced stores, and queue waiting responses.
func (b *LLCBank) Install(now int64, lineAddr uint32) {
	mi := -1
	for i := range b.mshr {
		if b.mshr[i].busy && b.mshr[i].lineAddr == lineAddr {
			mi = i
			break
		}
	}
	if mi < 0 {
		b.fail("fill for %#x with no MSHR", lineAddr)
		return
	}
	b.headBlocked = false
	set := b.setOf(lineAddr)
	w := b.victim(set)
	l := &b.lines[set*b.ways+w]
	if l.valid && l.dirty {
		b.dram.Write(now, l.addr, l.data, b.ID)
		b.st.Writebacks++
	}
	l.valid = true
	l.dirty = false
	l.addr = lineAddr
	b.global.ReadLine(lineAddr, l.data)
	b.touch(set, w)
	// Replay coalesced requests in arrival order: loads snapshot the line
	// as of their position, so they never observe later stores.
	for i := range b.mshr[mi].events {
		ev := &b.mshr[mi].events[i]
		if ev.isStore {
			l.data[ev.store.off] = ev.store.val
			l.dirty = true
			continue
		}
		m := &ev.req
		if b.causal {
			m.CDramQ, m.CDramLat = b.mshr[mi].cDramQ, b.mshr[mi].cDramLat
		}
		la, kStart, kEnd, ok := b.portion(m)
		if !ok || kEnd == kStart {
			continue
		}
		if la != lineAddr {
			b.fail("waiting request line %#x != fill %#x", la, lineAddr)
			continue
		}
		// Fills may exceed the hit-path job cap transiently; bounding only
		// the hit path keeps the bank deadlock-free.
		b.makeJob(m, l, lineAddr, kStart, kEnd)
	}
	b.mshr[mi].busy = false
	b.mshr[mi].lineAddr = 0
	b.mshr[mi].events = b.mshr[mi].events[:0]
	b.mshr[mi].cDramQ, b.mshr[mi].cDramLat = 0, 0
}

// streamResponses emits at most one flit per cycle from the head job,
// carrying up to NetWidthWords consecutive words for a single destination.
func (b *LLCBank) streamResponses(now int64) {
	if b.jobCount == 0 {
		return
	}
	j := &b.jobs[b.jobHead]
	if j.start < 0 {
		j.start = now
	}
	m := &j.req
	if m.Kind == msg.KindLoadReq {
		resp := msg.Message{
			Kind: msg.KindLoadResp, Src: b.node, Dst: m.Src,
			Words: 1, LQSlot: m.LQSlot, Addr: m.Addr,
		}
		if b.causal {
			b.stampResp(&resp, m, now, j.start)
		}
		resp.Vals[0] = j.data[0]
		if b.out.TrySend(resp) {
			b.st.RespWords++
			b.popJob()
		} else if b.causal {
			b.blocked++
		}
		return
	}
	// Wide access: bundle consecutive words for the same tile.
	k := j.kStart + j.sent
	tile, off, ok := b.destOf(m, k)
	if !ok {
		b.popJob()
		return
	}
	maxW := b.cfg.NetWidthWords
	// Addr carries the global address of the first bundled word so the
	// receiving scratchpad can record the frame's data provenance (replay).
	resp := msg.Message{
		Kind: msg.KindSpadWord, Src: b.node, Dst: tile,
		SpadOff: off, Addr: m.Addr + uint32(4*k),
	}
	if b.causal {
		b.stampResp(&resp, m, now, j.start)
	}
	resp.Vals[0] = j.data[j.sent]
	n := 1
	for n < maxW && j.sent+n < len(j.data) {
		nk := j.kStart + j.sent + n
		nt, noff, ok2 := b.destOf(m, nk)
		if !ok2 || nt != tile || noff != off+uint32(4*n) {
			break
		}
		resp.Vals[n] = j.data[j.sent+n]
		n++
	}
	resp.Words = n
	if !b.out.TrySend(resp) {
		if b.causal {
			b.blocked++
		}
		return
	}
	b.st.RespWords += int64(n)
	j.sent += n
	if j.sent == len(j.data) {
		b.popJob()
	}
}

// stampResp copies the request's causal journey onto a response and adds
// the bank's own decomposition: CInject (egress cycle), CLlcQ (wait from
// bank arrival to service start, net of DRAM time), and CGated (cycles the
// bank spent blocked on response-mesh injection during the request's
// residence — req.CInject parks the Accept-time snapshot of b.blocked).
// Delivery books CGated as NoC congestion, CLlcQ as bank queueing, and the
// residue as LLC service proper — the three scale with different hardware
// knobs (link bandwidth, bank count, neither).
func (b *LLCBank) stampResp(resp *msg.Message, req *msg.Message, now, start int64) {
	gated := b.blocked - req.CInject
	if gated < 0 || gated > now {
		gated = 0
	}
	q := start - req.CIssue - int64(req.CNocReq) - int64(req.CDramQ) - int64(req.CDramLat)
	if q < 0 {
		q = 0
	}
	resp.CIssue = req.CIssue
	resp.CNocReq = req.CNocReq
	resp.CDramQ = req.CDramQ
	resp.CDramLat = req.CDramLat
	resp.CLlcQ = int32(q)
	resp.CGated = int32(gated)
	resp.CInject = now
}

// FlushTo writes every dirty line back to the global store (end of
// simulation, so the harness can validate results).
func (b *LLCBank) FlushTo(g *Global) {
	for i := range b.lines {
		l := &b.lines[i]
		if l.valid && l.dirty {
			g.WriteLine(l.addr, l.data)
			l.dirty = false
		}
	}
}

// OverlayDirty copies every dirty line into words (a Global.Snapshot image)
// without disturbing bank state. The machine uses it to publish a coherent
// checkpoint while the cache keeps running.
func (b *LLCBank) OverlayDirty(words []uint32) {
	for i := range b.lines {
		l := &b.lines[i]
		if !l.valid || !l.dirty {
			continue
		}
		lo := int(l.addr / 4)
		if lo+len(l.data) > len(words) {
			b.fail("dirty line %#x outside snapshot of %d words", l.addr, len(words))
			continue
		}
		copy(words[lo:], l.data)
	}
}
