// Command fhdump decodes Slingshot wire formats from hex on stdin or the
// command line: O-RAN split-7.2x fronthaul packets (eCPRI), FAPI messages,
// and switch control commands. One hex string per line; output is a
// layer-by-layer dump in the spirit of gopacket's LayerDump.
//
// Usage:
//
//	fhdump 10000c000100...            # decode arguments
//	echo 1000... | fhdump             # or stdin, one packet per line
//	fhdump -gen                       # print example packets to play with
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/switchsim"
)

func main() {
	gen := flag.Bool("gen", false, "emit example packets as hex")
	flag.Parse()

	if *gen {
		generate()
		return
	}
	args := flag.Args()
	if len(args) > 0 {
		for _, a := range args {
			dump(a)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dump(line)
	}
}

func dump(hexStr string) {
	data, err := hex.DecodeString(strings.ReplaceAll(hexStr, " ", ""))
	if err != nil {
		fmt.Printf("!! bad hex: %v\n", err)
		return
	}
	var pkt fronthaul.Packet
	if err := pkt.DecodeFrom(data); err == nil {
		dumpFronthaul(&pkt, len(data))
		return
	}
	if msg, err := fapi.Decode(data); err == nil {
		dumpFAPI(msg, len(data))
		return
	}
	if cmd, err := switchsim.DecodeCommand(data); err == nil {
		fmt.Printf("SWITCH-CONTROL %d bytes\n", len(data))
		fmt.Printf("  type=%d ru=%d phy=%d slot=%v absSlot=%d\n",
			cmd.Type, cmd.RU, cmd.PHY, cmd.Slot, cmd.AbsSlot)
		return
	}
	fmt.Printf("!! %d bytes: not a fronthaul packet, FAPI message, or switch command\n", len(data))
}

func dumpFronthaul(p *fronthaul.Packet, wire int) {
	fmt.Printf("FRONTHAUL (eCPRI) %d bytes\n", wire)
	fmt.Printf("  %v %v eAxC=%d seq=%d slot=%v\n", p.Type, p.Dir, p.EAxC, p.Seq, p.Slot)
	switch p.Type {
	case fronthaul.MsgRTControl:
		secs, err := fronthaul.DecodeSections(p.Payload)
		if err != nil {
			fmt.Printf("  !! bad section list: %v\n", err)
			return
		}
		fmt.Printf("  C-plane: %d sections\n", len(secs))
		for i, s := range secs {
			fmt.Printf("    [%d] ue=%d %v prb=[%d,+%d) mod=%db harq=%d rv=%d new=%v tb=%dB grantSlot=%d\n",
				i, s.UEID, s.Dir, s.StartPRB, s.NumPRB, s.ModBits, s.HARQID, s.Rv, s.NewData, s.TBBytes, s.GrantSlot)
		}
		if len(p.Aux) > 0 {
			if reports, err := fapi.DecodeUCIList(p.Aux); err == nil {
				fmt.Printf("  UCI: %d reports\n", len(reports))
				for _, r := range reports {
					fmt.Printf("    ue=%d harq=%d fb=%v ack=%v cqi=%.1fdB\n",
						r.UEID, r.HARQID, r.HasFeedback, r.ACK, r.CQIdB)
				}
			}
		}
	case fronthaul.MsgIQData:
		fmt.Printf("  U-plane: section(ue)=%d prb=[%d,+%d) bfp=%d-bit payload=%dB aux=%dB\n",
			p.Section, p.StartPRB, p.NumPRB, p.MantissaBits, len(p.Payload), len(p.Aux))
		if iq, err := p.AppendIQ(nil); err == nil {
			n := len(iq)
			show := n
			if show > 4 {
				show = 4
			}
			fmt.Printf("  IQ: %d samples, first %d: %v\n", n, show, iq[:show])
		}
	}
}

func dumpFAPI(m fapi.Message, wire int) {
	fmt.Printf("FAPI %d bytes\n", wire)
	fmt.Printf("  %v cell=%d slot=%d\n", m.Kind(), m.Cell(), m.AbsSlot())
	switch msg := m.(type) {
	case *fapi.ULConfig:
		dumpPDUs("UL", msg.PDUs)
	case *fapi.DLConfig:
		dumpPDUs("DL", msg.PDUs)
	case *fapi.TxData:
		for _, pl := range msg.Payloads {
			fmt.Printf("  payload ue=%d harq=%d %dB\n", pl.UEID, pl.HARQID, len(pl.Data))
		}
	case *fapi.RxData:
		for _, pl := range msg.Payloads {
			fmt.Printf("  payload ue=%d harq=%d %dB\n", pl.UEID, pl.HARQID, len(pl.Data))
		}
	case *fapi.CRCIndication:
		for _, r := range msg.Results {
			fmt.Printf("  crc ue=%d harq=%d ok=%v snr=%.1fdB\n", r.UEID, r.HARQID, r.OK, r.SNRdB)
		}
	case *fapi.ConfigRequest:
		fmt.Printf("  numPRB=%d bfp=%d fecIters=%d seed=%#x\n",
			msg.NumPRB, msg.MantissaBits, msg.FECIters, msg.Seed)
	case *fapi.UCIIndication:
		for _, r := range msg.Reports {
			fmt.Printf("  uci ue=%d harq=%d fb=%v ack=%v cqi=%.1f\n",
				r.UEID, r.HARQID, r.HasFeedback, r.ACK, r.CQIdB)
		}
	}
}

func dumpPDUs(dir string, pdus []fapi.PDU) {
	if len(pdus) == 0 {
		fmt.Printf("  null %s_CONFIG (no UE work — keeps a standby PHY alive)\n", dir)
		return
	}
	for _, p := range pdus {
		fmt.Printf("  %s pdu ue=%d harq=%d rv=%d new=%v prb=[%d,+%d) %v tb=%dB\n",
			dir, p.UEID, p.HARQID, p.Rv, p.NewData,
			p.Alloc.StartPRB, p.Alloc.NumPRB, p.Alloc.Mod, p.TBBytes)
	}
}

func generate() {
	hb := fronthaul.NewControl(0, 7, fronthaul.Downlink, fronthaul.SlotID{Frame: 1, Subframe: 2, Slot: 1}, 1)
	hb.Payload = fronthaul.EncodeSections([]fronthaul.Section{{
		UEID: 3, Dir: fronthaul.Uplink, NumPRB: 91, ModBits: 2,
		HARQID: 5, NewData: true, TBBytes: 4000, GrantSlot: 1234,
	}})
	fmt.Printf("# DL C-plane heartbeat with one UL grant section\n%x\n", hb.SerializeInto(make([]byte, hb.WireLen())))

	null := fapi.NullUL(0, 1234)
	fmt.Printf("# null UL_CONFIG (standby keep-alive)\n%x\n", fapi.Encode(null))

	cmd := &switchsim.Command{Type: switchsim.CmdMigrateOnSlot, RU: 0, PHY: 2,
		Slot: fronthaul.SlotFromCounter(1240), AbsSlot: 1240}
	fmt.Printf("# migrate_on_slot command\n%x\n", cmd.Encode())
}
