package phy

import (
	"math"
	"sync"

	"slingshot/internal/dsp"
	"slingshot/internal/fec"
	"slingshot/internal/sim"
)

// Codec is the sampled-fidelity transport-block codec shared by the PHY
// and the UE model. Per transport block it runs one real code block
// through the full physical chain — CRC-16 attach, IRA/LDPC encoding,
// scrambling, QAM modulation, pilots — and derives the block's decode
// outcome from real LLR arithmetic. The remainder of the transport block
// rides as sidecar bytes (see DESIGN.md §1): decode success of the sampled
// block gates delivery of the whole TB.
type Codec struct {
	Code     *fec.Code
	Mantissa int
	Seed     uint64
	// PilotLen is the number of pilot symbols prepended per block.
	PilotLen int
}

// Default code dimensions: K info bits per sampled block, rate 1/2.
const (
	DefaultCodeK   = 256
	DefaultCodeN   = 512
	DefaultPilots  = 32
	DefaultFECIter = 8
)

// NewCodec builds a codec for a cell.
func NewCodec(k, n, mantissa int, seed uint64) *Codec {
	if k == 0 {
		k = DefaultCodeK
	}
	if n == 0 {
		n = DefaultCodeN
	}
	if mantissa == 0 {
		mantissa = 9
	}
	return &Codec{
		Code:     fec.Get(k, n, seed),
		Mantissa: mantissa,
		Seed:     seed,
		PilotLen: DefaultPilots,
	}
}

// scrambleMask derives the cell/slot/UE-specific scrambling bits, one per
// coded bit, 64 to a draw of the mask stream, appended to dst.
// Both ends derive the same mask; a receiver descrambling with the wrong
// parameters (or garbage IQ) sees random LLR signs and fails CRC.
func (c *Codec) scrambleMask(dst []uint64, slot uint64, ue uint16) []uint64 {
	rng := sim.NewRNG(c.Seed ^ slot*0x9E3779B97F4A7C15 ^ uint64(ue)<<17 | 1)
	for n := 0; n < c.Code.N; n += 64 {
		dst = append(dst, rng.Uint64())
	}
	return dst
}

// maskBit returns coded bit i's scrambling bit. It is the one place that
// knows how a mask is laid out, so the two ends below cannot drift apart.
func maskBit(mask []uint64, i int) uint64 {
	return mask[i>>6] >> (uint(i) & 63) & 1
}

// scrambleBits is the transmit end: coded bits (0/1 per byte) XOR the mask.
func scrambleBits(coded []byte, mask []uint64) {
	for i := range coded {
		coded[i] ^= byte(maskBit(mask, i))
	}
}

// descrambleLLRs is the receive end: a set mask bit negates the LLR, by
// sign-bit flip — negation for every float64, with no branch to mispredict.
func descrambleLLRs(llr []float64, mask []uint64) {
	for i, v := range llr {
		llr[i] = math.Float64frombits(math.Float64bits(v) ^ maskBit(mask, i)<<63)
	}
}

// pilotSeed mixes the cell seed with slot and UE for the pilot sequence.
func (c *Codec) pilotSeed(slot uint64, ue uint16) uint64 {
	return c.Seed ^ slot*0xBF58476D1CE4E5B9 ^ uint64(ue)<<29
}

// encodeBuf holds the recycled per-block transmit-chain staging (CRC frame,
// info bits, coded bits, pilots). Pooled package-wide like blockBuf; the
// transmit chain is fully staged inside one AppendEncodeBlock call, so the
// buffer is returned before the function does.
type encodeBuf struct {
	sample []byte
	bits   []byte
	coded  []byte
	mask   []uint64
	pilots []complex128
}

var encodeBufPool = sync.Pool{New: func() any { return new(encodeBuf) }}

// EncodeBlock is AppendEncodeBlock into a fresh slice. It remains only
// because the benchmark module's probes (bench/probes.go) and tests call it.
func (c *Codec) EncodeBlock(tb []byte, slot uint64, ue uint16, m dsp.Modulation) []complex128 {
	return c.AppendEncodeBlock(nil, tb, slot, ue, m)
}

// AppendEncodeBlock appends a transport block's transmitted symbols to dst:
// PilotLen pilot symbols followed by the scrambled, modulated code block,
// with all intermediate staging (CRC frame, bits, coded bits, pilots) in
// recycled buffers. Safe to call from parallel workers: it touches no codec
// state beyond the immutable code tables.
func (c *Codec) AppendEncodeBlock(dst []complex128, tb []byte, slot uint64, ue uint16, m dsp.Modulation) []complex128 {
	eb := encodeBufPool.Get().(*encodeBuf)

	// Sampled-block info bits: leading payload bytes + CRC-16, padded to K
	// bits. Deterministic in the TB so retransmissions produce the same
	// coded bits — that is what makes chase combining real.
	k := c.Code.K
	nBytes := k/8 - 2
	if nBytes < 1 {
		nBytes = 1
	}
	if cap(eb.sample) < nBytes+2 {
		eb.sample = make([]byte, 0, nBytes+2)
	}
	sample := eb.sample[:nBytes]
	for i := range sample {
		sample[i] = 0
	}
	copy(sample, tb)
	framed := fec.AppendCRC16(sample)
	eb.sample = framed[:0]
	if cap(eb.bits) < k {
		eb.bits = make([]byte, 0, k)
	}
	bits := eb.bits[:k]
	for i := range bits {
		bits[i] = 0
	}
	for i := 0; i < len(framed)*8 && i < k; i++ {
		bits[i] = framed[i/8] >> (7 - i%8) & 1
	}

	// Encode, scramble, pad to the modulation order (pad bits are zeros and
	// unscrambled, exactly as the append-based seed path produced).
	bps := m.BitsPerSymbol()
	padN := c.Code.N
	if rem := padN % bps; rem != 0 {
		padN += bps - rem
	}
	if cap(eb.coded) < padN {
		eb.coded = make([]byte, 0, padN)
	}
	coded := eb.coded[:padN]
	c.Code.EncodeInto(coded[:c.Code.N], bits)
	for i := c.Code.N; i < padN; i++ {
		coded[i] = 0
	}
	eb.mask = c.scrambleMask(eb.mask[:0], slot, ue)
	scrambleBits(coded[:c.Code.N], eb.mask)

	eb.pilots = dsp.PilotsInto(eb.pilots, c.PilotLen, c.pilotSeed(slot, ue))
	dst = append(dst, eb.pilots...)
	dst = dsp.AppendModulate(dst, coded, m)
	encodeBufPool.Put(eb)
	return dst
}

// SymbolsPerBlock returns the symbol count EncodeBlock emits for m.
func (c *Codec) SymbolsPerBlock(m dsp.Modulation) int {
	bps := m.BitsPerSymbol()
	coded := (c.Code.N + bps - 1) / bps
	return c.PilotLen + coded
}

// DecodeOutcome is the result of DecodeBlock.
type DecodeOutcome struct {
	OK        bool
	SNRdB     float64 // post-equalization estimate from pilots
	TxCount   int     // HARQ transmissions combined
	WorkUnits int     // decoder edge-iterations spent (CPU model input)
}

// HARQCombiner abstracts the soft-buffer pool so the UE (downlink) and the
// PHY (uplink) share the decode path. A nil combiner decodes standalone.
type HARQCombiner interface {
	Combine(ue uint16, proc uint8, llr []float64, newData bool) []float64
	Ack(ue uint16, proc uint8)
	TxCount(ue uint16, proc uint8) int
}

// blockBuf holds the recycled per-block receive-chain buffers (pilots,
// equalized data, LLRs, decoded info bits, CRC staging). Pooled
// package-wide: any codec can reuse any buffer, and buffers checked out by
// in-flight PreparedBlocks are returned on FinishPrepared/Release.
type blockBuf struct {
	pilots []complex128
	iq     []complex128
	llr    []float64
	mask   []uint64
	info   []byte
	crc    []byte
}

var blockBufPool = sync.Pool{New: func() any { return new(blockBuf) }}

// PreparedBlock is the event-loop half of an uplink decode: everything up
// to and including HARQ combining, captured so the expensive FEC decode
// can run later (and on a worker goroutine) without touching shared state.
// The LLRs are detached copies — they do not alias HARQ soft buffers.
type PreparedBlock struct {
	LLR     []float64
	SNRdB   float64
	TxCount int
	// Valid reports the receive chain produced enough LLRs to attempt FEC
	// decode; a false Valid block decodes as a CRC failure, like the seed
	// DecodeBlock's early returns.
	Valid bool

	buf *blockBuf
}

// Release returns the block's recycled buffers to the pool. FinishPrepared
// calls it; use it directly only for blocks that are abandoned undecoded.
func (pb *PreparedBlock) Release() {
	if pb.buf != nil {
		blockBufPool.Put(pb.buf)
		pb.buf = nil
		pb.LLR = nil
	}
}

// PrepareBlock runs the stateful front half of the receive chain on the
// event-loop goroutine: channel estimation from pilots, equalization, soft
// demodulation, descrambling and HARQ combining. The returned block is
// self-contained; DecodePrepared may then run on any worker goroutine.
func (c *Codec) PrepareBlock(rx []complex128, slot uint64, ue uint16, m dsp.Modulation,
	pool HARQCombiner, proc uint8, newData bool) PreparedBlock {

	pb := PreparedBlock{TxCount: 1}
	if len(rx) < c.PilotLen+1 {
		pb.TxCount = 0
		return pb
	}
	buf := blockBufPool.Get().(*blockBuf)
	pb.buf = buf
	buf.pilots = dsp.PilotsInto(buf.pilots, c.PilotLen, c.pilotSeed(slot, ue))
	h, noiseVar := dsp.EstimateChannel(rx[:c.PilotLen], buf.pilots)
	pb.SNRdB = dsp.SNRFromNoiseVar(noiseVar)

	buf.iq = append(buf.iq[:0], rx[c.PilotLen:]...)
	dsp.Equalize(buf.iq, h)
	buf.llr = dsp.DemodulateInto(buf.llr, buf.iq, m, noiseVar)
	if len(buf.llr) < c.Code.N {
		return pb
	}
	llr := buf.llr[:c.Code.N]
	buf.mask = c.scrambleMask(buf.mask[:0], slot, ue)
	descrambleLLRs(llr, buf.mask)
	if pool != nil {
		// Copy the combined LLRs back into the recycled buffer so the
		// decoder never aliases the live HARQ soft buffer.
		combined := pool.Combine(ue, proc, llr, newData)
		copy(llr, combined)
		pb.TxCount = pool.TxCount(ue, proc)
	}
	pb.LLR = llr
	pb.Valid = true
	return pb
}

// FECJob returns the block's FEC decode work as a fec.DecodeJob for
// fec.DecodeBatchInto. The job's Info buffer is the block's recycled info
// staging, so a slot's batch decodes with zero allocations, and runs of
// same-code jobs (the common case: one cell's slot) share the four-lane
// syndrome pre-pass. Only call for Valid blocks; pair each result with
// FinishFECJob.
func (c *Codec) FECJob(pb *PreparedBlock, iters int) fec.DecodeJob {
	if cap(pb.buf.info) < c.Code.K {
		pb.buf.info = make([]byte, c.Code.K)
	}
	return fec.DecodeJob{Code: c.Code, LLR: pb.LLR, MaxIters: iters, Info: pb.buf.info[:0]}
}

// FinishFECJob converts a batch decode result for FECJob back into the
// block's outcome: decoder work accounting plus the sampled block's CRC-16
// — parity convergence alone can be a wrong codeword. Cheap (K bits); runs
// on the event-loop goroutine during the slot's ordered merge.
func (c *Codec) FinishFECJob(pb *PreparedBlock, res *fec.DecodeResult) DecodeOutcome {
	out := DecodeOutcome{TxCount: pb.TxCount, SNRdB: pb.SNRdB}
	out.WorkUnits = c.Code.Edges() * res.Iterations
	if res.OK {
		k := c.Code.K
		nBytes := k / 8
		buf := pb.buf.crc
		if cap(buf) < nBytes {
			buf = make([]byte, nBytes)
			pb.buf.crc = buf
		}
		buf = buf[:nBytes]
		for i := range buf {
			buf[i] = 0
		}
		for i := 0; i < k; i++ {
			buf[i/8] |= res.Info[i] << (7 - i%8)
		}
		_, out.OK = fec.CheckCRC16(buf)
	}
	return out
}

// DecodePrepared runs the compute half — min-sum FEC decode plus the
// sampled block's CRC-16 — with pooled decoder scratch. It is pure: no
// HARQ, RNG or codec state is touched, so prepared blocks can be decoded
// concurrently while virtual time stays frozen. The PHY's slot drain
// decodes whole batches through FECJob/fec.DecodeBatchInto/FinishFECJob
// instead; this single-block form remains for the UE model and standalone
// DecodeBlock. Follow with FinishPrepared on the event-loop goroutine.
func (c *Codec) DecodePrepared(pb *PreparedBlock, iters int) DecodeOutcome {
	if !pb.Valid {
		return DecodeOutcome{TxCount: pb.TxCount, SNRdB: pb.SNRdB}
	}
	s := c.Code.GetScratch()
	res := c.Code.DecodeWithScratch(pb.LLR, iters, s)
	out := c.FinishFECJob(pb, &res)
	c.Code.PutScratch(s)
	return out
}

// FinishPrepared applies a decode outcome's HARQ effect (releasing the
// soft buffer on success) and recycles the block's buffers. Must run on
// the event-loop goroutine, after every worker of the batch has finished.
func (c *Codec) FinishPrepared(pb *PreparedBlock, out DecodeOutcome,
	pool HARQCombiner, ue uint16, proc uint8) {

	if out.OK && pool != nil {
		pool.Ack(ue, proc)
	}
	pb.Release()
}

// DecodeBlock runs the full receive chain on received symbols: channel
// estimation from pilots, equalization, soft demodulation, descrambling,
// HARQ combining, FEC decoding (iters iterations), CRC check. It is the
// sequential composition of PrepareBlock → DecodePrepared →
// FinishPrepared; the PHY's slot-batched uplink path drives the stages
// separately so a slot's blocks can decode in parallel.
func (c *Codec) DecodeBlock(rx []complex128, slot uint64, ue uint16, m dsp.Modulation,
	pool HARQCombiner, proc uint8, newData bool, iters int) DecodeOutcome {

	pb := c.PrepareBlock(rx, slot, ue, m, pool, proc, newData)
	if pb.TxCount == 0 {
		pb.TxCount = 1 // seed semantics: too-short rx still reports one tx
	}
	out := c.DecodePrepared(&pb, iters)
	c.FinishPrepared(&pb, out, pool, ue, proc)
	return out
}

// zeroPad is the source of PadSymbols' explicit zeros: appending from it
// overwrites whatever a pooled lease held, and allocates nothing while the
// destination's capacity suffices.
var zeroPad [12]complex128

// PadSymbols pads symbols with zeros to a multiple of 12 so they BFP-pack
// cleanly.
func PadSymbols(iq []complex128) []complex128 {
	if rem := len(iq) % 12; rem != 0 {
		iq = append(iq, zeroPad[:12-rem]...)
	}
	return iq
}

// PaddedSymbolsPerBlock is SymbolsPerBlock rounded up to whole PRBs: the
// capacity a block's IQ lease needs for encode and pad to grow nothing.
func (c *Codec) PaddedSymbolsPerBlock(m dsp.Modulation) int {
	return (c.SymbolsPerBlock(m) + 11) / 12 * 12
}
