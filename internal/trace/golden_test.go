// Golden-trace regression test (external package: it builds a full core
// deployment, which internal trace tests cannot import without a cycle).
package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"slingshot/internal/core"
	"slingshot/internal/par"
	"slingshot/internal/phy"
	"slingshot/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// goldenRun executes the canonical 100-TTI single-UE deployment with
// tracing enabled and returns the serialized trace.
func goldenRun() string {
	rec := trace.NewRecorder(0)
	cfg := core.DefaultConfig()
	cfg.UEs = []core.UESpec{{ID: 1, Name: "golden", MeanSNRdB: 24}}
	cfg.Trace = rec

	d := core.NewSlingshot(cfg)
	d.OnUplink(func(ue uint16, pkt []byte) {})
	d.Start()
	// A little app traffic mid-run so decode / RLC / HARQ events appear in
	// the window, not just slot clockwork.
	d.Engine.At(40*phy.TTI, "golden.traffic", func() {
		d.UEs[1].SendUplink(make([]byte, 600))
		d.SendDownlink(1, make([]byte, 600))
	})
	d.Run(100 * phy.TTI)
	d.Stop()
	return rec.Serialize()
}

// TestGoldenTrace compares the 100-TTI single-UE trace byte-for-byte with
// the committed golden file. Regenerate deliberately with:
//
//	go test ./internal/trace -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	path := filepath.Join("testdata", "golden_100tti.trace")
	got := goldenRun()

	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo, hi := i-120, i+120
		if lo < 0 {
			lo = 0
		}
		clip := func(s string) string {
			h := hi
			if h > len(s) {
				h = len(s)
			}
			if lo >= h {
				return ""
			}
			return s[lo:h]
		}
		t.Fatalf("trace diverged from golden file at byte %d\n--- got ---\n%s\n--- want ---\n%s\n"+
			"(intentional format changes: re-run with -update)", i, clip(got), clip(string(want)))
	}

	// The same run must serialize identically regardless of the worker-pool
	// width — emission happens only on the event-loop goroutine.
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	if again := goldenRun(); again != got {
		t.Fatal("trace differs at four workers")
	}
}
