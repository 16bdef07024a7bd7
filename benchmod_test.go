package slingshot

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds vets the benchmark module. bench/ is a module of its
// own (it replaces slingshot with this checkout), so `go build ./...` and
// `go test ./...` here never compile it: a change that renames or deletes
// something bench/probes.go calls — Channel.Transmit, Codec.EncodeBlock,
// fec.DecodeBatchInto, Engine.AfterPooled (now only a synonym of After,
// kept because the probe calls it) and the like — would otherwise pass
// every test and fail only when the benchmark runs.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	out, err := exec.Command(goBin, "-C", "bench", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}
