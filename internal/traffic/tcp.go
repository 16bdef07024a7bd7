package traffic

import (
	"slingshot/internal/metrics"
	"slingshot/internal/sim"
)

// TCP implements a NewReno-style sender and a cumulative-ACK receiver over
// the simulated bearer, enough to reproduce the paper's Fig 10 transport
// behaviour: dupACK fast retransmit, partial-ACK recovery, RTO with
// exponential backoff, slow start and congestion avoidance. Sequence
// numbers count segments (fixed MSS), not bytes.

// TCPConfig parameterizes a sender.
type TCPConfig struct {
	Flow     uint16
	MSS      int     // segment payload bytes
	InitCwnd float64 // segments
	MinRTO   sim.Time
	MaxCwnd  float64 // receiver-window equivalent, segments
}

// DefaultTCPConfig returns sane defaults for the cellular bearer.
func DefaultTCPConfig(flow uint16) TCPConfig {
	return TCPConfig{
		Flow:     flow,
		MSS:      1400 - headerLen,
		InitCwnd: 10,
		MinRTO:   200 * sim.Millisecond,
		MaxCwnd:  512,
	}
}

// TCPSender is the sending endpoint. It transmits continuously (iperf
// mode): the application always has data.
type TCPSender struct {
	Cfg    TCPConfig
	Engine *sim.Engine
	Send   SendFunc

	nextSeq    uint64 // next new segment to send
	sndUna     uint64 // oldest unacked
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recover    uint64 // recovery point (highest seq sent at loss)
	retxHigh   uint64 // highest seq retransmitted this recovery

	srtt, rttvar sim.Time
	rto          sim.Time
	rtoBackoff   int
	timer        *sim.Timer // retransmission timeout
	// tsSent maps in-flight segment -> first-send time (for RTT samples;
	// Karn's rule: only time un-retransmitted segments).
	tsSent   map[uint64]sim.Time
	retxMark map[uint64]bool

	// Stats.
	SegmentsSent uint64
	Retransmits  uint64
	Timeouts     uint64
	FastRecovers uint64
}

// NewTCPSender creates a sender.
func NewTCPSender(e *sim.Engine, cfg TCPConfig, send SendFunc) *TCPSender {
	if cfg.MSS <= 0 {
		cfg.MSS = 1400 - headerLen
	}
	if cfg.InitCwnd == 0 {
		cfg.InitCwnd = 10
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = 200 * sim.Millisecond
	}
	if cfg.MaxCwnd == 0 {
		cfg.MaxCwnd = 512
	}
	t := &TCPSender{
		Cfg:      cfg,
		Engine:   e,
		Send:     send,
		cwnd:     cfg.InitCwnd,
		ssthresh: cfg.MaxCwnd,
		rto:      cfg.MinRTO,
		tsSent:   make(map[uint64]sim.Time),
		retxMark: make(map[uint64]bool),
	}
	t.timer = e.NewTimer("tcp.rto", t.onTimeout)
	return t
}

// Start opens the flow (no handshake modeled; iperf's is negligible).
func (t *TCPSender) Start() {
	t.pump()
}

// Cwnd returns the current congestion window in segments.
func (t *TCPSender) Cwnd() float64 { return t.cwnd }

// InFlight returns the number of unacked segments.
func (t *TCPSender) InFlight() uint64 { return t.nextSeq - t.sndUna }

func (t *TCPSender) pump() {
	for float64(t.InFlight()) < t.cwnd {
		t.transmit(t.nextSeq, false)
		t.nextSeq++
	}
	t.armTimer()
}

func (t *TCPSender) transmit(seq uint64, isRetx bool) {
	h := Header{Type: PktTCPData, Flow: t.Cfg.Flow, Seq: seq, Ts: t.Engine.Now()}
	t.Send(Marshal(h, t.Cfg.MSS))
	t.SegmentsSent++
	if isRetx {
		t.Retransmits++
		t.retxMark[seq] = true
	} else if _, seen := t.tsSent[seq]; !seen {
		t.tsSent[seq] = t.Engine.Now()
	}
}

func (t *TCPSender) armTimer() {
	if t.InFlight() == 0 {
		t.timer.Stop()
		return
	}
	backoff := t.rto << t.rtoBackoff
	if backoff > 60*sim.Second {
		backoff = 60 * sim.Second
	}
	t.timer.Reset(backoff)
}

func (t *TCPSender) onTimeout() {
	if t.InFlight() == 0 {
		return
	}
	t.Timeouts++
	t.ssthresh = t.cwnd / 2
	if t.ssthresh < 2 {
		t.ssthresh = 2
	}
	t.cwnd = 1
	t.dupAcks = 0
	t.inRecovery = false
	t.rtoBackoff++
	// Go-back-N from the hole.
	t.transmit(t.sndUna, true)
	t.armTimer()
}

// HandleSegment processes an incoming ACK.
func (t *TCPSender) HandleSegment(pkt []byte) {
	h, _, err := Unmarshal(pkt)
	if err != nil || h.Type != PktTCPAck || h.Flow != t.Cfg.Flow {
		return
	}
	ack := h.Ack // next expected segment at receiver
	switch {
	case ack > t.sndUna:
		t.onNewAck(ack)
	case ack == t.sndUna:
		t.onDupAck()
	}
	t.pump()
}

func (t *TCPSender) onNewAck(ack uint64) {
	// RTT sample from the newest cumulative segment if untouched by retx.
	if ts, ok := t.tsSent[ack-1]; ok && !t.retxMark[ack-1] {
		t.updateRTT(t.Engine.Now() - ts)
	}
	for s := t.sndUna; s < ack; s++ {
		delete(t.tsSent, s)
		delete(t.retxMark, s)
	}
	t.sndUna = ack
	t.rtoBackoff = 0

	if t.inRecovery {
		if ack > t.recover {
			// Full recovery.
			t.inRecovery = false
			t.cwnd = t.ssthresh
			t.dupAcks = 0
		} else {
			// Partial ACK: retransmit the next chunk of the hole
			// (SACK-style bulk recovery rather than one-per-RTT NewReno;
			// Linux senders with SACK recover a multi-segment burst in
			// about one RTT).
			t.retransmitChunk()
		}
	} else {
		t.dupAcks = 0
		if t.cwnd < t.ssthresh {
			t.cwnd++ // slow start
		} else {
			t.cwnd += 1 / t.cwnd // congestion avoidance
		}
		if t.cwnd > t.Cfg.MaxCwnd {
			t.cwnd = t.Cfg.MaxCwnd
		}
	}
	t.armTimer()
}

func (t *TCPSender) onDupAck() {
	if t.inRecovery {
		return
	}
	t.dupAcks++
	if t.dupAcks == 3 {
		t.FastRecovers++
		t.inRecovery = true
		t.recover = t.nextSeq
		t.retxHigh = t.sndUna
		t.ssthresh = t.cwnd / 2
		if t.ssthresh < 2 {
			t.ssthresh = 2
		}
		t.cwnd = t.ssthresh
		t.retransmitChunk()
		t.armTimer()
	}
}

// retxChunk bounds how many segments one recovery round resends.
const retxChunk = 64

// retransmitChunk resends the leading un-retransmitted part of the hole
// [sndUna, recover), at most retxChunk segments per call.
func (t *TCPSender) retransmitChunk() {
	start := t.sndUna
	if t.retxHigh > start {
		start = t.retxHigh
	}
	end := start + retxChunk
	if end > t.recover {
		end = t.recover
	}
	for s := start; s < end; s++ {
		t.transmit(s, true)
	}
	if end > t.retxHigh {
		t.retxHigh = end
	}
}

func (t *TCPSender) updateRTT(sample sim.Time) {
	if t.srtt == 0 {
		t.srtt = sample
		t.rttvar = sample / 2
	} else {
		diff := t.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		t.rttvar = (3*t.rttvar + diff) / 4
		t.srtt = (7*t.srtt + sample) / 8
	}
	t.rto = t.srtt + 4*t.rttvar
	if t.rto < t.Cfg.MinRTO {
		t.rto = t.Cfg.MinRTO
	}
}

// SRTT returns the smoothed RTT estimate.
func (t *TCPSender) SRTT() sim.Time { return t.srtt }

// Stop cancels the retransmission timer.
func (t *TCPSender) Stop() { t.timer.Stop() }

// TCPReceiver is the receiving endpoint: cumulative ACKs, in-order
// delivery accounting, goodput bins.
type TCPReceiver struct {
	Engine *sim.Engine
	Flow   uint16
	// SendAck transmits ACKs back to the sender.
	SendAck SendFunc
	// Bins accumulates in-order goodput bytes per bin.
	Bins *metrics.TimeSeries

	rcvNxt   uint64
	ooo      map[uint64]int // out-of-order segment -> payload length
	Bytes    uint64
	AcksSent uint64
}

// NewTCPReceiver creates a receiver.
func NewTCPReceiver(e *sim.Engine, flow uint16, sendAck SendFunc, bins *metrics.TimeSeries) *TCPReceiver {
	return &TCPReceiver{Engine: e, Flow: flow, SendAck: sendAck, Bins: bins, ooo: make(map[uint64]int)}
}

// Handle processes an incoming data segment.
func (r *TCPReceiver) Handle(pkt []byte) {
	h, plen, err := Unmarshal(pkt)
	if err != nil || h.Type != PktTCPData || h.Flow != r.Flow {
		return
	}
	if h.Seq >= r.rcvNxt {
		r.ooo[h.Seq] = plen
	}
	// Advance over any contiguous prefix; goodput counts in-order bytes
	// at the time the hole fills (the paper's 157 Mbps catch-up spike).
	now := r.Engine.Now()
	for {
		n, ok := r.ooo[r.rcvNxt]
		if !ok {
			break
		}
		delete(r.ooo, r.rcvNxt)
		r.rcvNxt++
		r.Bytes += uint64(n + headerLen)
		if r.Bins != nil {
			r.Bins.Add(now, float64(n+headerLen))
		}
	}
	ack := Header{Type: PktTCPAck, Flow: r.Flow, Ack: r.rcvNxt, Ts: now}
	r.SendAck(Marshal(ack, 0))
	r.AcksSent++
}
