package experiments

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"slingshot/internal/shard"
)

func TestRegistryListsAll(t *testing.T) {
	want := []string{"ablations", "chaos", "extl2", "extmimo", "fig10a", "fig10b", "fig11", "fig12",
		"fig3", "fig8", "fig9", "frontier", "sec82", "sec85", "sec86", "table2"}
	got := List()
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
		if Title(got[i]) == "" {
			t.Fatalf("no title for %s", got[i])
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nonexistent", 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "T", Output: "body\n", Summary: "sum"}
	s := r.String()
	for _, want := range []string{"== x: T ==", "body", "sum"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Result.String missing %q:\n%s", want, s)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Run("fig3", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "RDMA") || !strings.Contains(r.Output, "TCP") {
		t.Fatal("fig3 missing transports")
	}
	if !strings.Contains(r.Summary, "crashed in 40/40") {
		t.Fatalf("FlexRAN did not crash in all runs: %s", r.Summary)
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Run("fig8", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline must show a multi-second outage; Slingshot must not.
	if !strings.Contains(r.Summary, "Slingshot degraded seconds: 0") {
		t.Fatalf("Slingshot video degraded: %s", r.Summary)
	}
	if strings.Contains(r.Summary, "outage ≈ 0 s") {
		t.Fatalf("baseline shows no outage: %s", r.Summary)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Run("fig9", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "OnePlus") {
		t.Fatal("fig9 missing UEs")
	}
	// The spike must stay within natural-fluctuation territory (<25 ms).
	if strings.Contains(r.Summary, "spike above median: -") {
		t.Fatal("negative spike")
	}
}

func TestFig10aShape(t *testing.T) {
	r, err := Run("fig10a", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// The failover may blank at most one 10 ms bin of either DL flow.
	m := regexp.MustCompile(`DL (TCP|UDP): pre (\d+) Mbps, min-after \d+ Mbps, zero-bins (\d+)`).FindAllStringSubmatch(r.Summary, -1)
	if len(m) != 2 {
		t.Fatalf("summary: %s", r.Summary)
	}
	for _, f := range m {
		if pre, _ := strconv.Atoi(f[2]); pre == 0 {
			t.Fatalf("DL %s carried nothing before the failover: %s", f[1], r.Summary)
		}
		if zero, _ := strconv.Atoi(f[3]); zero > 1 {
			t.Fatalf("DL %s blanked %d bins: %s", f[1], zero, r.Summary)
		}
	}
}

func TestFig10bShape(t *testing.T) {
	r, err := Run("fig10b", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Summary, "planned migration: pre") {
		t.Fatalf("summary: %s", r.Summary)
	}
	// Planned migrations must show zero blackout bins.
	for _, line := range strings.Split(r.Summary, "\n") {
		if strings.Contains(line, "planned migration") && !strings.Contains(line, "zero-bins 0") {
			t.Fatalf("planned migration dropped traffic: %s", line)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	r, err := Run("ablations", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A1:", "A2:", "A3:", "A4:", "null FAPIs (Slingshot):"} {
		if !strings.Contains(r.Output, want) {
			t.Fatalf("ablations missing %q:\n%s", want, r.Output)
		}
	}
	// A2: the null-FAPI standby does no PHY work at all.
	if !strings.Contains(r.Output, "standby 0 (0% overhead)") {
		t.Fatalf("null-FAPI standby did work:\n%s", r.Output)
	}
}

func TestExtL2Shape(t *testing.T) {
	r, err := Run("extl2", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// PASS: the restored L2 keeps the bearer and out-delivers a cold restart.
	if !strings.HasPrefix(r.Summary, "PASS") {
		t.Fatalf("extl2: %s\n%s", r.Summary, r.Output)
	}
}

func TestExtMIMOShape(t *testing.T) {
	r, err := Run("extmimo", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// PASS: recovery time grows with the retraining horizon.
	if !strings.HasPrefix(r.Summary, "PASS") {
		t.Fatalf("extmimo: %s\n%s", r.Summary, r.Output)
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Run("fig12", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Summary, "PASS") {
		t.Fatalf("Orion latency bound violated: %s", r.Summary)
	}
}

func TestSec82Shape(t *testing.T) {
	r, err := Run("sec82", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Summary, "PASS") {
		t.Fatalf("failover timeline out of bounds: %s\n%s", r.Summary, r.Output)
	}
}

func TestSec85Shape(t *testing.T) {
	r, err := Run("sec85", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Summary, "secondary compute = 0.00%") {
		t.Fatalf("secondary not idle: %s", r.Summary)
	}
}

func TestSec86Shape(t *testing.T) {
	r, err := Run("sec86", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Summary, "PASS") {
		t.Fatalf("inter-packet gap check failed: %s", r.Summary)
	}
	for _, res := range []string{"5.2%", "10.4%", "14.1%", "9.5%"} {
		if !strings.Contains(r.Output, res) {
			t.Fatalf("resource table missing %s:\n%s", res, r.Output)
		}
	}
}

func TestChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is slow")
	}
	r, err := Run("chaos", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "fingerprint") {
		t.Fatalf("chaos output:\n%s", r.Output)
	}
	if !strings.Contains(r.Summary, "upheld every invariant") {
		t.Fatalf("chaos found violations: %s\n%s", r.Summary, r.Output)
	}
}

// TestFrontierShape runs the availability-vs-spare-ratio sweep small: all
// 16 (scenario, ratio) points, none with an invariant violation, and the
// report's fingerprint line.
func TestFrontierShape(t *testing.T) {
	r, err := Run("frontier", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]bool{}
	for _, sc := range shard.FrontierScenarios {
		scenarios[sc] = true
	}
	points := 0
	for _, line := range strings.Split(r.Output, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !scenarios[f[0]] {
			continue
		}
		points++
		if viol := f[len(f)-1]; viol != "0" {
			t.Errorf("frontier point %s ratio %s recorded %s violation(s)", f[0], f[1], viol)
		}
	}
	if points != 16 {
		t.Errorf("frontier table has %d points, want 16:\n%s", points, r.Output)
	}
	if !regexp.MustCompile(`(?m)^fingerprint: [0-9a-f]{16}$`).MatchString(r.Output) {
		t.Errorf("frontier output has no fingerprint line:\n%s", r.Output)
	}
}

func TestTable2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 is slow")
	}
	r, err := Run("table2", 0.084) // ~5s per rate
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "Interrupted HARQ seqs") {
		t.Fatalf("table2 output:\n%s", r.Output)
	}
}

func TestFig11SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 is slow")
	}
	r, err := Run("fig11", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "Raspberry Pi") {
		t.Fatalf("fig11 output:\n%s", r.Output)
	}
}
