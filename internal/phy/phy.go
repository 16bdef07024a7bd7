package phy

import (
	"fmt"
	"math"
	"sort"

	"slingshot/internal/fapi"
	"slingshot/internal/fec"
	"slingshot/internal/fronthaul"
	"slingshot/internal/harq"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/par"
	"slingshot/internal/sim"
	"slingshot/internal/trace"
)

// Config parameterizes a PHY process.
type Config struct {
	// ID is the logical PHY id assigned by the operator (switch directory
	// key, §5.1).
	ID uint8
	// FECIters is the decoder iteration budget used when a cell's
	// CONFIG.request does not override it. The live-upgrade experiment
	// deploys a secondary with a larger budget.
	FECIters int
	// CodeK/CodeN are the sampled code block dimensions.
	CodeK, CodeN int
	// PipelineSlots is the slot-processing pipeline depth (Fig 7); uplink
	// results for slot N are delivered at the end of slot N+PipelineSlots-1.
	PipelineSlots int
	// MissedConfigLimit is how many consecutive slots without any UL/DL
	// CONFIG request the PHY tolerates before crashing (FlexRAN crashes
	// when FAPI requests stop; §6.2).
	MissedConfigLimit int
	// HeartbeatOffset is when within a slot the DL C-plane packet leaves.
	HeartbeatOffset sim.Time
	// HeartbeatJitter is the max extra scheduling jitter on transmissions.
	HeartbeatJitter sim.Time
	// UPlaneOffset is when within a slot DL U-plane packets leave.
	UPlaneOffset sim.Time
	// MIMORetrainSlots, when non-zero, models a massive-MIMO PHY's
	// inter-slot uplink equalization state (§10 of the paper): the
	// combining matrices improve with every uplink reception and are
	// discarded on migration. Until a UE has been received this many
	// times, residual equalization error caps its effective SINR.
	MIMORetrainSlots int
	// MIMOUntrainedCapDB is the effective SINR cap of a completely
	// untrained equalizer.
	MIMOUntrainedCapDB float64
	// MidSlotOffset is when the second per-slot control packet (the
	// UL C-plane / sync packet) leaves. Real PHYs emit several downlink
	// packets per slot; the paper measures a 393 µs max gap between them
	// (§8.6), which is what keeps the 450 µs detector timeout safe even
	// on idle slots.
	MidSlotOffset sim.Time
}

// DefaultConfig returns the standard PHY configuration.
func DefaultConfig(id uint8) Config {
	return Config{
		ID:                id,
		FECIters:          DefaultFECIter,
		CodeK:             DefaultCodeK,
		CodeN:             DefaultCodeN,
		PipelineSlots:     3,
		MissedConfigLimit: 6,
		HeartbeatOffset:   30 * sim.Microsecond,
		HeartbeatJitter:   60 * sim.Microsecond,
		UPlaneOffset:      120 * sim.Microsecond,
		MidSlotOffset:     260 * sim.Microsecond,
	}
}

// Stats counts PHY work for the overhead experiments (§8.5).
type Stats struct {
	SlotsProcessed uint64
	NullSlots      uint64 // slots whose configs carried no UE work
	WorkUnits      uint64 // decoder edge-iterations (CPU model input)
	EncodedTBs     uint64
	DecodeOK       uint64
	DecodeFail     uint64
	HeartbeatsSent uint64
	MissedConfigs  uint64
	FronthaulRx    uint64
	FronthaulTx    uint64
}

// PHY is one PHY process (the paper's FlexRAN instance). It serves one or
// more cells (RUs), speaks FAPI towards its PHY-side Orion over SHM, and
// exchanges fronthaul packets with the switch.
type PHY struct {
	Cfg    Config
	Engine *sim.Engine
	Addr   netmodel.Addr

	// SendFAPI delivers FAPI messages to the PHY-side Orion (SHM path).
	SendFAPI func(fapi.Message)
	// SendFronthaul transmits a frame towards the switch.
	SendFronthaul func(*netmodel.Frame)
	// OnCrash, if set, observes the crash reason.
	OnCrash func(reason string)
	// OnULDecode observes every uplink decode attempt: which HARQ process
	// the block was combined into, whether the grant announced new data,
	// a hash of the transport block the packet claims to carry, and the
	// CRC outcome. Cross-layer invariant checkers use it to assert HARQ
	// soft-buffer conservation (no chase-combining across different TBs).
	OnULDecode func(cell, ue uint16, harq uint8, newData bool, tbHash uint64, ok bool)
	// OnSoftDiscard observes DiscardSoftState (migration landing).
	OnSoftDiscard func()
	// Trace, when non-nil, records typed observability events (TTI
	// boundaries, decode outcomes, fronthaul tx/rx, crashes). Emission
	// happens only on the event-loop goroutine — never inside a par
	// worker batch — so traces are invariant to SLINGSHOT_WORKERS.
	Trace *trace.Recorder
	// OwnsFAPIData marks that messages delivered to HandleFAPI are owned by
	// the PHY outright, payload Data included — true on the Orion path,
	// where every message came from fapi.Decode. The slot GC then recycles
	// TX_DATA payload buffers (ReleaseDeep). Baseline SHM wiring leaves it
	// false: there the L2's TX_DATA Data aliases its HARQ retransmission
	// copies, which the L2 still owns (DESIGN.md §10).
	OwnsFAPIData bool

	Stats Stats

	rng       *sim.RNG
	cells     map[uint16]*cell
	cellOrder []uint16 // sorted ids: deterministic slot-processing order
	crashed   bool
	stopClock func()
	// iqBuf is the recycled uplink IQ decompression buffer. receiveUL runs
	// only on the event-loop goroutine and PrepareBlock copies the samples
	// it needs, so one buffer serves every reception.
	iqBuf []complex128
	// ulJobs/ulResults/ulJobOf are the recycled drainUL FEC-batch staging:
	// the slot's valid blocks become one fec.DecodeBatchInto call (runs of
	// same-code jobs share the four-lane pre-pass), ulJobOf maps each
	// pending block to its job index (-1 for blocks with nothing to
	// decode).
	// drainUL is a single event and the batch blocks until done, so one
	// set of buffers serves every slot.
	ulJobs    []fec.DecodeJob
	ulResults []fec.DecodeResult
	ulJobOf   []int32
	// dlJobs / dlPayloads are transmitDL's recycled per-slot staging
	// (cleared after each use so no TB bytes are pinned across slots).
	dlJobs     []dlJob
	dlPayloads map[uint32][]byte
	// fhTxFn / drainFn are the long-lived callbacks behind the pooled
	// per-packet and per-slot events (see sim.AfterArgPooled): one closure
	// for the PHY's lifetime, a recycled arg struct per event.
	fhTxFn  func(any)
	drainFn func(any)
}

// fhTxArg carries one scheduled fronthaul transmission.
type fhTxArg struct {
	frame  *netmodel.Frame
	cellID uint16
	a, b   uint64 // packet trace args
}

// ulDrainArg carries one scheduled uplink pipeline drain.
type ulDrainArg struct {
	cell uint16
	slot uint64
}

var (
	fhTxArgPool    = mem.NewPool[fhTxArg](func(t *fhTxArg) { *t = fhTxArg{} })
	ulDrainArgPool = mem.NewPool[ulDrainArg](func(d *ulDrainArg) { *d = ulDrainArg{} })
)

// dlJob is one DL PDU's staged work item in transmitDL.
type dlJob struct {
	tb     []byte
	ue     uint16
	seq    uint8
	jitter sim.Time
	pkt    *fronthaul.Packet
}

// pendingUL is one uplink reception awaiting the slot's pipeline drain.
// The receive-chain front half (channel estimation through HARQ combining)
// already ran at packet arrival; the FEC decode is deferred so the whole
// slot's blocks can be dispatched across the worker pool at drain time.
type pendingUL struct {
	ue      uint16
	harq    uint8
	newData bool
	hadIQ   bool // payload decompressed; false decodes as CRC fail (DTX-like)
	tbHash  uint64
	aux     []byte
	snrAvg  float64
	pb      PreparedBlock
}

type cell struct {
	id      uint16
	cfg     fapi.ConfigRequest
	started bool
	codec   *Codec
	iters   int
	pool    *harq.Pool
	snr     map[uint16]*harq.SNRFilter
	seq     uint8

	// mimoTrain counts uplink receptions per UE since (re)start — the
	// massive-MIMO equalizer's training state (soft, discarded on
	// migration).
	mimoTrain map[uint16]int

	ulConfigs SlotRing[*fapi.ULConfig]
	dlConfigs SlotRing[*fapi.DLConfig]
	txData    SlotRing[*fapi.TxData]
	// ulPending accumulates prepared (combined, not yet FEC-decoded) uplink
	// blocks per slot until the pipeline drains them to the L2. A UE has
	// been received in a slot exactly when it has an entry there; granted
	// UEs without one become DTX (CRC fail) at pipeline completion.
	ulPending SlotRing[[]pendingUL]
	// grantQueue holds UL grant sections awaiting announcement in the
	// next DL C-plane packet (the PDCCH path to the UE).
	grantQueue []fronthaul.Section
	// pendFree recycles the per-slot pending lists between pipeline
	// drains: the few uplink slots in flight share them, where leaving
	// each in its ring cell would grow 32 of them.
	pendFree [][]pendingUL

	missedConfigs int
}

// New creates a PHY process.
func New(e *sim.Engine, cfg Config, rng *sim.RNG) *PHY {
	if cfg.PipelineSlots < 1 {
		cfg.PipelineSlots = 3
	}
	if cfg.MissedConfigLimit < 1 {
		cfg.MissedConfigLimit = 6
	}
	if cfg.FECIters < 1 {
		cfg.FECIters = DefaultFECIter
	}
	p := &PHY{
		Cfg:    cfg,
		Engine: e,
		Addr:   netmodel.PHYAddr(cfg.ID),
		rng:    rng,
		cells:  make(map[uint16]*cell),
	}
	p.fhTxFn = func(a any) {
		t := a.(*fhTxArg)
		frame, cellID, ta, tb := t.frame, t.cellID, t.a, t.b
		fhTxArgPool.Put(t)
		if p.crashed {
			return
		}
		if p.SendFronthaul != nil {
			p.SendFronthaul(frame)
			p.Stats.FronthaulTx++
			if p.Trace != nil {
				p.Trace.Emit(trace.KindFronthaulTx, p.Cfg.ID, cellID, 0, ta, tb)
			}
		}
	}
	p.drainFn = func(a any) {
		d := a.(*ulDrainArg)
		cell, slot := d.cell, d.slot
		ulDrainArgPool.Put(d)
		p.drainUL(cell, slot)
	}
	return p
}

// Start begins the PHY's slot clock at the next slot boundary.
func (p *PHY) Start() {
	if p.stopClock != nil {
		return
	}
	now := p.Engine.Now()
	next := (now + TTI - 1) / TTI * TTI
	p.stopClock = p.Engine.Every(next-now, TTI, "phy.slot", p.onSlot)
}

// Crashed reports whether the PHY has crashed or been killed.
func (p *PHY) Crashed() bool { return p.crashed }

// Kill terminates the PHY immediately (the experiments' SIGKILL).
func (p *PHY) Kill() { p.crash("SIGKILL") }

func (p *PHY) crash(reason string) {
	if p.crashed {
		return
	}
	p.crashed = true
	if p.stopClock != nil {
		p.stopClock()
		p.stopClock = nil
	}
	if p.Trace != nil {
		p.Trace.EmitLabeled(trace.KindCrash, reason, p.Cfg.ID, 0, 0, 0, 0)
	}
	if p.OnCrash != nil {
		p.OnCrash(reason)
	}
}

// HandleFAPI processes a FAPI message from the PHY-side Orion.
func (p *PHY) HandleFAPI(m fapi.Message) {
	if p.crashed {
		return
	}
	switch msg := m.(type) {
	case *fapi.ConfigRequest:
		p.configure(msg)
	case *fapi.StartRequest:
		if c := p.cells[msg.CellID]; c != nil {
			c.started = true
		}
	case *fapi.StopRequest:
		if c := p.cells[msg.CellID]; c != nil {
			c.started = false
		}
	case *fapi.ULConfig:
		p.acceptUL(msg)
	case *fapi.DLConfig:
		p.acceptDL(msg)
	case *fapi.TxData:
		if c := p.cells[msg.CellID]; c != nil {
			if old, had := c.txData.Put(msg.Slot, msg); had && old != msg {
				p.releaseFAPI(old)
			}
		}
	}
}

// releaseFAPI recycles a retained FAPI message once the PHY is done with
// it, honouring payload ownership (see OwnsFAPIData).
func (p *PHY) releaseFAPI(m fapi.Message) {
	if p.OwnsFAPIData {
		fapi.ReleaseDeep(m)
	} else {
		fapi.ReleaseShallow(m)
	}
}

func (p *PHY) configure(req *fapi.ConfigRequest) {
	iters := int(req.FECIters)
	if iters == 0 {
		iters = p.Cfg.FECIters
	}
	pool := harq.NewPool()
	pool.Trace, pool.Server, pool.Cell = p.Trace, p.Cfg.ID, req.CellID
	c := &cell{
		id:        req.CellID,
		cfg:       *req,
		codec:     NewCodec(p.Cfg.CodeK, p.Cfg.CodeN, int(req.MantissaBits), req.Seed),
		iters:     iters,
		pool:      pool,
		snr:       make(map[uint16]*harq.SNRFilter),
		mimoTrain: make(map[uint16]int),
	}
	if _, existed := p.cells[req.CellID]; !existed {
		i := sort.Search(len(p.cellOrder), func(i int) bool { return p.cellOrder[i] >= req.CellID })
		p.cellOrder = append(p.cellOrder, 0)
		copy(p.cellOrder[i+1:], p.cellOrder[i:])
		p.cellOrder[i] = req.CellID
	}
	p.cells[req.CellID] = c
	p.fapiOut(&fapi.ConfigResponse{CellID: req.CellID, OK: true})
}

func (p *PHY) acceptUL(msg *fapi.ULConfig) {
	c := p.cells[msg.CellID]
	if c == nil {
		return
	}
	if old, had := c.ulConfigs.Put(msg.Slot, msg); had && old != msg {
		p.releaseFAPI(old)
	}
	// Queue grant announcements for the UEs (PDCCH equivalent) so the
	// next DL C-plane packet carries them over the air.
	for _, pdu := range msg.PDUs {
		c.grantQueue = append(c.grantQueue, fronthaul.Section{
			UEID:      pdu.UEID,
			Dir:       fronthaul.Uplink,
			StartPRB:  uint16(pdu.Alloc.StartPRB),
			NumPRB:    uint16(pdu.Alloc.NumPRB),
			ModBits:   uint8(pdu.Alloc.Mod),
			HARQID:    pdu.HARQID,
			Rv:        pdu.Rv,
			NewData:   pdu.NewData,
			TBBytes:   pdu.TBBytes,
			GrantSlot: msg.Slot,
		})
	}
}

func (p *PHY) acceptDL(msg *fapi.DLConfig) {
	if c := p.cells[msg.CellID]; c != nil {
		if old, had := c.dlConfigs.Put(msg.Slot, msg); had && old != msg {
			p.releaseFAPI(old)
		}
	}
}

func (p *PHY) fapiOut(m fapi.Message) {
	if p.SendFAPI != nil {
		p.SendFAPI(m)
	}
}

// onSlot runs once per TTI.
func (p *PHY) onSlot() {
	if p.crashed {
		return
	}
	slot := SlotAt(p.Engine.Now())
	// Iterate in sorted cell order: map order would make the event schedule
	// (and thus the whole run) nondeterministic across processes.
	for _, id := range p.cellOrder {
		c := p.cells[id]
		if !c.started {
			continue
		}
		p.processSlot(c, slot)
	}
}

func (p *PHY) processSlot(c *cell, slot uint64) {
	p.Stats.SlotsProcessed++
	if p.Trace != nil {
		p.Trace.Emit(trace.KindTTI, p.Cfg.ID, c.id, 0, slot, 0)
	}
	p.fapiOut(fapi.GetSlotIndication(c.id, slot))

	ul, _ := c.ulConfigs.Get(slot)
	dl, _ := c.dlConfigs.Get(slot)
	if ul == nil && dl == nil {
		c.missedConfigs++
		p.Stats.MissedConfigs++
		if c.missedConfigs >= p.Cfg.MissedConfigLimit {
			p.fapiOut(&fapi.ErrorIndication{CellID: c.id, Slot: slot, Code: fapi.ErrCodeMissingConfig})
			p.crash(fmt.Sprintf("no FAPI configs for %d consecutive slots (cell %d)", c.missedConfigs, c.id))
			return
		}
	} else {
		c.missedConfigs = 0
		if (ul == nil || ul.Null()) && (dl == nil || dl.Null()) {
			p.Stats.NullSlots++
		}
	}

	// Downlink C-plane heartbeat: every slot, carrying any pending UL
	// grant sections plus this slot's DL data sections.
	sections := c.grantQueue
	if dl != nil {
		for _, pdu := range dl.PDUs {
			sections = append(sections, fronthaul.Section{
				UEID:      pdu.UEID,
				Dir:       fronthaul.Downlink,
				StartPRB:  uint16(pdu.Alloc.StartPRB),
				NumPRB:    uint16(pdu.Alloc.NumPRB),
				ModBits:   uint8(pdu.Alloc.Mod),
				HARQID:    pdu.HARQID,
				Rv:        pdu.Rv,
				NewData:   pdu.NewData,
				TBBytes:   pdu.TBBytes,
				GrantSlot: slot,
			})
		}
	}
	p.sendHeartbeat(c, slot, sections)
	// The heartbeat's payload copied the sections; reclaim the (possibly
	// grown) array for next slot's grant queue.
	c.grantQueue = sections[:0]

	// Downlink data (U-plane) for DL/S slots with scheduled PDUs.
	if dl != nil && !dl.Null() {
		p.transmitDL(c, slot, dl)
	}

	// Uplink: schedule the pipeline drain that reports results (including
	// DTX for grants whose fronthaul never arrived) to the L2.
	if ul != nil && !ul.Null() {
		drainAt := SlotStart(slot+uint64(p.Cfg.PipelineSlots)-1) + 450*sim.Microsecond
		d := ulDrainArgPool.Get()
		d.cell, d.slot = c.id, slot
		p.Engine.AtArgPooled(drainAt, "phy.ul-drain", p.drainFn, d)
	}

	// GC stale per-slot state, recycling the retained FAPI messages (the
	// last alias into a TX_DATA payload died when transmitDL serialized the
	// slot's packets, 20 slots ago). Pending blocks that never drained
	// (crash races) give their pooled buffers back before the slice is
	// recycled. State this misses — slot 0, or a slot the cell never
	// processed — goes when its ring cell is reused (the Put evictions).
	if slot > 20 {
		old := slot - 20
		if m, ok := c.ulConfigs.Delete(old); ok {
			p.releaseFAPI(m)
		}
		if m, ok := c.dlConfigs.Delete(old); ok {
			p.releaseFAPI(m)
		}
		if m, ok := c.txData.Delete(old); ok {
			p.releaseFAPI(m)
		}
		if pend, ok := c.ulPending.Delete(old); ok {
			c.recyclePending(pend)
		}
	}
}

// recyclePending returns a slot's pending list to the free list, giving
// back the pooled buffers of blocks that never drained.
func (c *cell) recyclePending(pend []pendingUL) {
	for i := range pend {
		pend[i].pb.Release()
		pend[i] = pendingUL{}
	}
	c.pendFree = append(c.pendFree, pend[:0])
}

// sendHeartbeat emits the slot's DL C-plane packet. Healthy PHYs emit this
// every slot — it is the natural heartbeat the in-switch failure detector
// monitors (§5.2.1).
func (p *PHY) sendHeartbeat(c *cell, slot uint64, sections []fronthaul.Section) {
	pkt := fronthaul.NewControl(c.id, c.seq, fronthaul.Downlink,
		fronthaul.SlotFromCounter(slot), uint8(len(sections)))
	c.seq++
	pkt.Payload = fronthaul.AppendSections(
		mem.GetBytesCap(fronthaul.SectionsSize(len(sections))), sections)
	delay := p.Cfg.HeartbeatOffset + sim.Time(p.rng.Float64()*float64(p.Cfg.HeartbeatJitter))
	p.sendFronthaulAt(delay, pkt, c, 0)
	p.Stats.HeartbeatsSent++

	// Second per-slot control packet (UL C-plane / sync). Keeps the max
	// downlink inter-packet gap near the 393 µs the paper measures, well
	// under the in-switch detector's 450 µs timeout even on idle slots.
	if p.Cfg.MidSlotOffset > 0 {
		mid := fronthaul.NewControl(c.id, c.seq, fronthaul.Downlink,
			fronthaul.SlotFromCounter(slot), 0)
		mid.Payload = fronthaul.AppendSections(mem.GetBytesCap(fronthaul.SectionsSize(0)), nil)
		c.seq++
		midDelay := p.Cfg.MidSlotOffset + sim.Time(p.rng.Float64()*float64(p.Cfg.HeartbeatJitter))
		p.sendFronthaulAt(midDelay, mid, c, 0)
		p.Stats.HeartbeatsSent++
	}
}

func (p *PHY) sendFronthaulAt(delay sim.Time, pkt *fronthaul.Packet, c *cell, virtual int) {
	frame := netmodel.GetFrame()
	frame.Src = p.Addr
	frame.Dst = netmodel.RUAddr(c.id)
	frame.Type = netmodel.EtherTypeECPRI
	frame.Payload = pkt.SerializePooled()
	frame.Virtual = virtual
	traceA, traceB := pkt.TraceArgs()
	// Serialize copied the packet to the wire, so the staging is done: the
	// PHY owns pkt and its Payload (pooled by the builders) but never its
	// Aux (that aliases a TX_DATA transport block).
	mem.PutBytes(pkt.Payload)
	pkt.Recycle()
	t := fhTxArgPool.Get()
	t.frame, t.cellID, t.a, t.b = frame, c.id, traceA, traceB
	p.Engine.AfterArgPooled(delay, "phy.fh-tx", p.fhTxFn, t)
}

// transmitDL encodes each DL PDU's sampled block and ships U-plane packets
// to the RU. It runs in three phases so a slot's encodes can share the
// worker pool without perturbing the deterministic schedule: a sequential
// phase drains every p.rng draw (jitter) and seq assignment in PDU order,
// a parallel phase runs the pure encode + BFP compression, and a final
// sequential phase schedules the sends in PDU order.
func (p *PHY) transmitDL(c *cell, slot uint64, dl *fapi.DLConfig) {
	// BFP width is fixed per cell; an invalid width fails every packet
	// (the seed path dropped each one after encoding), so short-circuit
	// before assigning sequence numbers or drawing jitter.
	if c.codec.Mantissa < 2 || c.codec.Mantissa > 16 {
		return
	}
	tx, _ := c.txData.Get(slot)
	// Payloads key on (UE, HARQ process): one slot can carry both a
	// retransmission and new data for the same UE. The map is recycled
	// scratch — cleared before transmitDL returns.
	if p.dlPayloads == nil {
		p.dlPayloads = make(map[uint32][]byte, 8)
	}
	payloads := p.dlPayloads
	if tx != nil {
		for _, pl := range tx.Payloads {
			payloads[uint32(pl.UEID)<<8|uint32(pl.HARQID)] = pl.Data
		}
	}

	// Phase 1 (sequential): fix the per-PDU sequence numbers and jitter
	// draws in PDU order — the p.rng stream must advance exactly as the
	// sequential schedule would.
	if cap(p.dlJobs) < len(dl.PDUs) {
		p.dlJobs = make([]dlJob, len(dl.PDUs))
	}
	jobs := p.dlJobs[:len(dl.PDUs)]
	for i, pdu := range dl.PDUs {
		jobs[i] = dlJob{
			tb:     payloads[uint32(pdu.UEID)<<8|uint32(pdu.HARQID)],
			ue:     pdu.UEID,
			seq:    c.seq,
			jitter: sim.Time(p.rng.Float64() * float64(p.Cfg.HeartbeatJitter)),
		}
		c.seq++
	}

	// Phase 2 (parallel): pure compute — encode, pad, BFP-compress. The IQ
	// staging buffer is leased and returned inside each job (the packet
	// payload copied the compressed samples); results land by index, so the
	// merge order below is deterministic.
	par.ForEach(len(jobs), func(i int) {
		pdu := &dl.PDUs[i]
		n := c.codec.PaddedSymbolsPerBlock(pdu.Alloc.Mod)
		iq := c.codec.AppendEncodeBlock(mem.GetComplexCap(n), jobs[i].tb, slot, pdu.UEID, pdu.Alloc.Mod)
		iq = PadSymbols(iq)
		pkt, err := fronthaul.NewDownlinkIQ(c.id, jobs[i].seq, fronthaul.SlotFromCounter(slot),
			uint16(pdu.Alloc.StartPRB), uint16(pdu.Alloc.NumPRB), iq, c.codec.Mantissa)
		mem.PutComplex(iq)
		if err != nil {
			return
		}
		jobs[i].pkt = pkt
	})

	// Phase 3 (sequential): schedule sends in PDU order.
	for i := range jobs {
		pkt := jobs[i].pkt
		if pkt == nil {
			continue
		}
		pdu := &dl.PDUs[i]
		pkt.Section = pdu.UEID
		pkt.Aux = jobs[i].tb
		// Virtual size: the full allocation's compressed IQ.
		virtual := pdu.Alloc.REs() / 12 * fronthaul.BFPBlockBytes(c.codec.Mantissa)
		p.sendFronthaulAt(p.Cfg.UPlaneOffset+jobs[i].jitter, pkt, c, virtual)
		p.Stats.EncodedTBs++
		p.Stats.WorkUnits += uint64(c.codec.Code.Edges()) // encode cost ~ one pass
	}
	for i := range jobs {
		jobs[i] = dlJob{}
	}
	clear(payloads)
}

// HandleFrame implements netmodel.Receiver for fronthaul traffic from the
// switch (uplink U-plane packets from the RU). The PHY is the frame's
// terminal consumer: everything that outlives the call (IQ staging, UCI
// reports, the TB sidecar held until drainUL) is copied out by the
// handlers, so the frame and its wire buffer go back to the pool on
// return.
func (p *PHY) HandleFrame(f *netmodel.Frame) {
	p.handleFrame(f)
	netmodel.ReleaseFrame(f)
}

func (p *PHY) handleFrame(f *netmodel.Frame) {
	if p.crashed || f.Type != netmodel.EtherTypeECPRI {
		return
	}
	pkt, err := fronthaul.Decode(f.Payload)
	if err != nil {
		if p.Trace != nil {
			p.Trace.Metrics().Counter("phy.fh.decode_errors").Inc()
		}
		return
	}
	p.Stats.FronthaulRx++
	if p.Trace != nil {
		a, b := pkt.TraceArgs()
		p.Trace.Emit(trace.KindFronthaulRx, p.Cfg.ID, pkt.EAxC, pkt.Section, a, b)
	}
	c := p.cells[pkt.EAxC]
	if c == nil || !c.started {
		return
	}
	if pkt.Dir != fronthaul.Uplink {
		return
	}
	if pkt.Type == fronthaul.MsgRTControl {
		// UL C-plane from the RU: carries the slot's UCI (PUCCH) reports.
		if len(pkt.Aux) > 0 {
			uci := fapi.GetUCIIndication(c.id, SlotAt(p.Engine.Now()))
			reports, err := fapi.AppendDecodeUCIList(uci.Reports, pkt.Aux)
			uci.Reports = reports
			if err == nil && len(reports) > 0 {
				p.fapiOut(uci)
			} else {
				fapi.ReleaseShallow(uci)
			}
		}
		return
	}
	if pkt.Type != fronthaul.MsgIQData {
		return
	}
	p.receiveUL(c, pkt)
}

// receiveUL runs the stateful front half of the uplink chain on one UE's
// sampled block at packet arrival: MIMO perturbation (p.rng draw order is
// part of the deterministic schedule), channel estimation, demodulation
// and HARQ combining. The FEC decode is deferred to drainUL so the whole
// slot's blocks run on the worker pool together.
func (p *PHY) receiveUL(c *cell, pkt *fronthaul.Packet) {
	// Identify the slot by matching against a pending UL config. The
	// wrapped SlotID is resolved against outstanding grants.
	slot, ulCfg := c.matchULSlot(pkt.Slot)
	if ulCfg == nil {
		return
	}
	ue := pkt.Section
	var pdu *fapi.PDU
	for i := range ulCfg.PDUs {
		if ulCfg.PDUs[i].UEID == ue {
			pdu = &ulCfg.PDUs[i]
			break
		}
	}
	if pdu == nil {
		return
	}
	lst, live := c.ulPending.Get(slot)
	for i := range lst {
		if lst[i].ue == ue {
			return // duplicate
		}
	}

	pend := pendingUL{ue: ue, harq: pdu.HARQID, newData: pdu.NewData}
	iq, err := pkt.AppendIQ(p.iqBuf[:0])
	var snrDB float64
	if err == nil {
		p.iqBuf = iq
		p.applyMIMOError(c, ue, iq)
		pend.pb = c.codec.PrepareBlock(iq, slot, ue, pdu.Alloc.Mod,
			c.pool, pdu.HARQID, pdu.NewData)
		pend.hadIQ = true
		pend.tbHash = hashTB(pkt.Aux)
		// Copy the TB sidecar out of the packet now: the frame's wire
		// buffer is released when HandleFrame returns, but this pending
		// entry lives until drainUL. The pending list owns the copy and
		// hands it to the RX_DATA (decode OK) or back to the pool.
		pend.aux = append(mem.GetBytesCap(len(pkt.Aux)), pkt.Aux...)
		snrDB = pend.pb.SNRdB
	}

	filter := c.snr[ue]
	if filter == nil {
		filter = &harq.SNRFilter{}
		c.snr[ue] = filter
	}
	pend.snrAvg = filter.Observe(snrDB)

	if !live {
		if n := len(c.pendFree); n > 0 {
			lst = c.pendFree[n-1]
			c.pendFree = c.pendFree[:n-1]
		}
	}
	if old, had := c.ulPending.Put(slot, append(lst, pend)); had && !live {
		c.recyclePending(old)
	}
}

// matchULSlot resolves a wrapped SlotID against pending UL configs: the
// ring cell it names holds the only candidate, since RingSlots divides
// fronthaul.SlotWrap.
func (c *cell) matchULSlot(sid fronthaul.SlotID) (uint64, *fapi.ULConfig) {
	idx := sid.Index()
	if slot, cfg, ok := c.ulConfigs.Lookup(idx); ok && slot%fronthaul.SlotWrap == idx {
		return slot, cfg
	}
	return 0, nil
}

// drainUL completes the slot's uplink pipeline: FEC-decodes the slot's
// prepared blocks across the worker pool, merges the outcomes in
// deterministic (UE, HARQ) order, then emits RX_DATA for decoded TBs and a
// CRC.indication covering every granted UE (DTX = CRC fail). Virtual time
// is frozen while the workers run — drainUL is one event, and the engine
// only resumes after every decode of the batch has landed.
func (p *PHY) drainUL(cellID uint16, slot uint64) {
	if p.crashed {
		return
	}
	c := p.cells[cellID]
	if c == nil {
		return
	}
	ulCfg, _ := c.ulConfigs.Get(slot)
	if ulCfg == nil {
		return
	}
	pending, _ := c.ulPending.Get(slot)

	// Ordered merge: sort by (UE, HARQ) so downstream effects (HARQ acks,
	// CRC list order, stats) are independent of fronthaul arrival order —
	// and trivially independent of worker scheduling.
	sort.SliceStable(pending, func(i, j int) bool {
		if pending[i].ue != pending[j].ue {
			return pending[i].ue < pending[j].ue
		}
		return pending[i].harq < pending[j].harq
	})

	// Parallel part: pure compute only. The slot's valid blocks are staged
	// as one FEC batch — consecutive jobs share the cell's code, so
	// DecodeBatchInto advances them four at a time through the SoA
	// lane-group kernel and spreads the lane groups across the worker
	// pool. Results land by job index; the merge below maps them back.
	iters := c.iters
	jobs, jobOf := p.ulJobs[:0], p.ulJobOf[:0]
	for i := range pending {
		pd := &pending[i]
		if pd.hadIQ && pd.pb.Valid {
			jobs = append(jobs, c.codec.FECJob(&pd.pb, iters))
			jobOf = append(jobOf, int32(len(jobs)-1))
		} else {
			jobOf = append(jobOf, -1)
		}
	}
	if cap(p.ulResults) < len(jobs) {
		p.ulResults = make([]fec.DecodeResult, len(jobs))
	}
	results := p.ulResults[:len(jobs)]
	fec.DecodeBatchInto(results, jobs)

	// Sequential merge, back on the event-loop goroutine. The outgoing
	// RX_DATA/CRC messages are leased; ownership passes downstream with
	// fapiOut (the PHY-side Orion releases them after forwarding).
	okBefore, failBefore := p.Stats.DecodeOK, p.Stats.DecodeFail
	rx := fapi.GetRxData(cellID, slot)
	crcInd := fapi.GetCRCIndication(cellID, slot)
	for i := range pending {
		pd := &pending[i]
		var out DecodeOutcome
		if pd.hadIQ {
			if j := jobOf[i]; j >= 0 {
				out = c.codec.FinishFECJob(&pd.pb, &results[j])
			} else {
				out = DecodeOutcome{TxCount: pd.pb.TxCount, SNRdB: pd.pb.SNRdB}
			}
		}
		if pd.hadIQ && p.Trace != nil {
			// Emitted here, in the deterministic (UE, HARQ)-ordered merge on
			// the event-loop goroutine — never from the parallel decode above
			// — so the trace is byte-identical at any worker count.
			flags := uint64(pd.harq)
			if pd.newData {
				flags |= 1 << 8
			}
			if out.OK {
				flags |= 1 << 9
			}
			p.Trace.Emit(trace.KindFECDecode, p.Cfg.ID, c.id, pd.ue, slot, flags)
		}
		if pd.hadIQ && p.OnULDecode != nil {
			p.OnULDecode(c.id, pd.ue, pd.harq, pd.newData, pd.tbHash, out.OK)
		}
		c.codec.FinishPrepared(&pd.pb, out, c.pool, pd.ue, pd.harq)
		p.Stats.WorkUnits += uint64(out.WorkUnits)
		crcInd.Results = append(crcInd.Results, fapi.CRCResult{
			UEID: pd.ue, HARQID: pd.harq, OK: out.OK, SNRdB: float32(pd.snrAvg),
		})
		if out.OK {
			p.Stats.DecodeOK++
			// The pending entry's owned sidecar copy (made at receiveUL)
			// transfers to the RX_DATA: the PHY-side Orion releases it
			// after forwarding.
			rx.Payloads = append(rx.Payloads, fapi.TBPayload{
				UEID: pd.ue, HARQID: pd.harq, Data: pd.aux,
			})
			pd.aux = nil
		} else {
			p.Stats.DecodeFail++
			mem.PutBytes(pd.aux)
			pd.aux = nil
		}
	}
	for _, pdu := range ulCfg.PDUs {
		i := sort.Search(len(pending), func(i int) bool { return pending[i].ue >= pdu.UEID })
		if i < len(pending) && pending[i].ue == pdu.UEID {
			continue
		}
		// No fronthaul reception for this grant: report DTX as decode
		// failure so the L2 HARQ machinery retransmits.
		snr := float32(0)
		if f := c.snr[pdu.UEID]; f != nil {
			snr = float32(f.Value())
		}
		crcInd.Results = append(crcInd.Results, fapi.CRCResult{UEID: pdu.UEID, HARQID: pdu.HARQID, OK: false, SNRdB: snr})
		p.Stats.DecodeFail++
	}
	if p.Trace != nil {
		m := p.Trace.Metrics()
		m.Counter("phy.decode.ok").Add(p.Stats.DecodeOK - okBefore)
		m.Counter("phy.decode.fail").Add(p.Stats.DecodeFail - failBefore)
	}
	if len(rx.Payloads) > 0 {
		p.fapiOut(rx)
	} else {
		fapi.ReleaseShallow(rx)
	}
	if len(crcInd.Results) > 0 {
		p.fapiOut(crcInd)
	} else {
		fapi.ReleaseShallow(crcInd)
	}
	// Recycle the batch staging, dropping buffer references so released
	// blockBufs are not pinned until the next drain.
	for i := range jobs {
		jobs[i] = fec.DecodeJob{}
	}
	p.ulJobs, p.ulJobOf = jobs[:0], jobOf[:0]
	if _, ok := c.ulPending.Delete(slot); ok {
		for i := range pending {
			pending[i] = pendingUL{}
		}
		c.pendFree = append(c.pendFree, pending[:0])
	}
}

// applyMIMOError injects the residual equalization error of a partially
// trained massive-MIMO combiner: a multiplicative per-symbol perturbation
// capping the effective SINR until MIMORetrainSlots receptions have
// (re)trained the UE's matrices. No-op unless the PHY is configured as a
// massive-MIMO build.
func (p *PHY) applyMIMOError(c *cell, ue uint16, iq []complex128) {
	n := p.Cfg.MIMORetrainSlots
	if n <= 0 {
		return
	}
	t := c.mimoTrain[ue]
	if t < n {
		frac := float64(t) / float64(n)
		capDB := p.Cfg.MIMOUntrainedCapDB + (42-p.Cfg.MIMOUntrainedCapDB)*frac
		sigma := math.Pow(10, -capDB/20)
		var z [128]float64 // 64 samples' I and Q error per NormFill
		for len(iq) > 0 {
			chunk := iq[:min(len(iq), len(z)/2)]
			p.rng.NormFill(z[:2*len(chunk)])
			for i := range chunk {
				chunk[i] += chunk[i] * complex(z[2*i]*sigma, z[2*i+1]*sigma)
			}
			iq = iq[len(chunk):]
		}
	}
	c.mimoTrain[ue] = t + 1
}

// DiscardSoftState drops every cell's HARQ buffers and SNR filters. This
// is what happens implicitly at migration: the destination PHY simply has
// no soft state. Exposed for the stress-test instrumentation (§8.4).
// It returns the number of interrupted HARQ sequences.
func (p *PHY) DiscardSoftState() int {
	interrupted := 0
	for _, c := range p.cells {
		interrupted += c.pool.Reset()
		for _, f := range c.snr {
			f.Reset()
		}
		c.mimoTrain = make(map[uint16]int)
	}
	if p.OnSoftDiscard != nil {
		p.OnSoftDiscard()
	}
	return interrupted
}

// hashTB is FNV-1a over the transport-block sidecar, identifying which TB
// a reception claims to carry (for the HARQ-conservation observer).
func hashTB(tb []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range tb {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// ActiveHARQ returns the number of in-flight (un-acked) uplink HARQ
// sequences for a cell — the soft state a migration strands (§8.4).
func (p *PHY) ActiveHARQ(cell uint16) int {
	if c := p.cells[cell]; c != nil {
		return c.pool.ActiveSequences()
	}
	return 0
}

// HARQInterrupted returns the cumulative interrupted-sequence count.
func (p *PHY) HARQInterrupted() uint64 {
	var n uint64
	for _, c := range p.cells {
		n += c.pool.Interrupted
	}
	return n
}

// CellConfigured reports whether the PHY has a configured cell.
func (p *PHY) CellConfigured(id uint16) bool { return p.cells[id] != nil }

// CellStarted reports whether the cell is processing slots.
func (p *PHY) CellStarted(id uint16) bool {
	c := p.cells[id]
	return c != nil && c.started
}

// CellIters returns the FEC iteration budget of a configured cell (0 if
// absent) — used by upgrade tests.
func (p *PHY) CellIters(id uint16) int {
	if c := p.cells[id]; c != nil {
		return c.iters
	}
	return 0
}
