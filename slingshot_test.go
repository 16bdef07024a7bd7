package slingshot

import (
	"testing"
	"time"
)

func TestFacadeFailoverKeepsConnectivity(t *testing.T) {
	d := New(DefaultOptions())
	d.Start()
	d.RunFor(100 * time.Millisecond)
	if !d.UEConnected(1) || !d.UEConnected(2) || !d.UEConnected(3) {
		t.Fatal("UEs not connected after bring-up")
	}
	before := d.ActivePHYServer()
	d.KillActivePHY()
	d.RunFor(200 * time.Millisecond)
	defer d.Stop()
	if d.ActivePHYServer() == before {
		t.Fatal("failover did not move the PHY")
	}
	if len(d.Detections()) != 1 {
		t.Fatalf("detections = %d", len(d.Detections()))
	}
	if d.Migrations() != 1 {
		t.Fatalf("migrations = %d", d.Migrations())
	}
	for ue := uint16(1); ue <= 3; ue++ {
		if !d.UEConnected(ue) {
			t.Fatalf("UE %d disconnected across failover", ue)
		}
	}
}

func TestFacadeDataPath(t *testing.T) {
	d := New(Options{Seed: 2, UEs: []UE{{ID: 1, Name: "dev", SNRdB: 26}}})
	var up, down int
	d.OnUplink(func(ue uint16, pkt []byte) { up++ })
	if err := d.OnDownlink(1, func(pkt []byte) { down++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.OnDownlink(99, nil); err == nil {
		t.Fatal("unknown UE accepted")
	}
	d.Start()
	d.At(50*time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			if !d.SendUplink(1, make([]byte, 200)) {
				t.Error("SendUplink rejected")
			}
			if !d.SendDownlink(1, make([]byte, 200)) {
				t.Error("SendDownlink rejected")
			}
		}
	})
	d.RunFor(300 * time.Millisecond)
	defer d.Stop()
	if up < 10 || down < 10 {
		t.Fatalf("delivered up=%d down=%d of 10 each", up, down)
	}
	if d.Now() < 300*time.Millisecond {
		t.Fatalf("Now = %v", d.Now())
	}
}

func TestFacadeMigrate(t *testing.T) {
	d := New(DefaultOptions())
	d.Start()
	d.RunFor(50 * time.Millisecond)
	if err := d.Migrate(); err != nil {
		t.Fatal(err)
	}
	d.RunFor(50 * time.Millisecond)
	defer d.Stop()
	if d.Migrations() != 1 {
		t.Fatal("planned migration not executed")
	}
}

func TestFacadeBaselineRejectsMigrate(t *testing.T) {
	d := New(Options{Seed: 1, Baseline: true, UEs: []UE{{ID: 1, Name: "x", SNRdB: 25}}})
	d.Start()
	d.RunFor(10 * time.Millisecond)
	defer d.Stop()
	if err := d.Migrate(); err == nil {
		t.Fatal("baseline accepted planned migration")
	}
}

// TestMetroSoakShardAware: fleet soaks surface per-cell reports through
// the shard-aware chaos.SoakReports path.
func TestMetroSoakShardAware(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: fleet soak")
	}
	if failing, ok := MetroSoak(2, 4, 16); !ok {
		t.Fatalf("fleet soak failed:\n%s", failing)
	}
	// Invalid fleet shapes must fail the soak, not silently pass.
	if _, ok := MetroSoak(1, 2, 1); ok {
		t.Fatal("soak passed a fleet with empty cells")
	}
}

func TestChaosUnknownProfile(t *testing.T) {
	if _, err := Chaos(1, "nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"ablations", "chaos", "extl2", "extmimo", "fig10a", "fig10b", "fig11", "fig12",
		"fig3", "fig8", "fig9", "frontier", "sec82", "sec85", "sec86", "table2"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments = %v, want %v", got, want)
		}
	}
	if _, err := RunExperiment("nope", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
