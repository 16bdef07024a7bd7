package main

// Resident service mode: instead of one batch narration, slingshotd -serve
// keeps a fleet alive behind an HTTP control plane. The step loop advances
// one TTI barrier at a time under a mutex, so every handler that wins the
// lock observes the fleet at a barrier — the only instant a checkpoint is
// valid. The flight recorder is always armed in this mode; when a live
// invariant violation appears, the server automatically rewinds to the
// nearest on-disk checkpoint, replays to the violation barrier, and
// compares the replayed flight-recorder dumps byte-for-byte against the
// live ones (the time-travel debugging loop from the paper's operational
// story, exercised end to end).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"

	"slingshot/internal/ckpt"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// server is the resident deployment plus its checkpoint ledger.
type server struct {
	mu   sync.Mutex
	f    *shard.Fleet
	mgr  *ckpt.Manager
	cfg  shard.Config
	done bool

	paused  bool // restore?hold=1 parks the fleet at a barrier
	looping bool // a stepLoop goroutine is alive

	ckptEvery int // barriers between automatic checkpoints
	steps     int // barriers completed since (re)start
	lastViol  int // violation count at the previous barrier
	saved     int
	replays   int
	events    []string
}

func (s *server) event(format string, args ...any) {
	line := fmt.Sprintf("[%10v] ", s.f.Now()) + fmt.Sprintf(format, args...)
	s.events = append(s.events, line)
	fmt.Println(line)
}

// serveOpts bundles the -serve flag set.
type serveOpts struct {
	addr, scenario string
	cells, ues     int
	seed           uint64
	ckptEvery      int
	ckptDir        string
	rogueAt        sim.Time
	rogueCell      int
}

// runServe is the -serve entry point.
func runServe(o serveOpts) {
	cfg, err := ckpt.Scenario(o.scenario, o.cells, o.ues)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Seed = o.seed
	cfg.Trace = true // serve mode always arms the flight recorder
	cfg.RogueAt = o.rogueAt
	cfg.RogueCell = o.rogueCell
	ckptDir := o.ckptDir
	if ckptDir == "" {
		ckptDir, err = os.MkdirTemp("", "slingshot-ckpt-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	f, err := shard.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := &server{f: f, mgr: &ckpt.Manager{Dir: ckptDir}, cfg: f.Config(), ckptEvery: o.ckptEvery}
	s.f.Start()
	s.event("serve: scenario %s, %d cells / %d UEs, horizon %v, checkpoints every %d TTIs into %s",
		o.scenario, s.cfg.Cells, s.cfg.UEs, s.cfg.Horizon, o.ckptEvery, ckptDir)
	if _, err := s.checkpointLocked(); err != nil { // barrier 0 is always on disk
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/restore", s.handleRestore)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}()

	fmt.Printf("serve: listening on http://%s\n", ln.Addr())
	s.looping = true
	s.stepLoop()
	select {} // run complete; stay resident for inspection
}

// stepLoop advances the fleet barrier by barrier, checkpointing on the
// grid and watching for live invariant violations. It returns when the
// horizon is reached or the server is paused (the HTTP plane stays up).
// Handlers interleave between barriers: sync.Mutex's starvation mode
// hands the lock to any waiter blocked more than ~1ms, so the tight loop
// cannot lock them out.
func (s *server) stepLoop() {
	for {
		s.mu.Lock()
		if s.done || s.paused {
			s.looping = false
			s.mu.Unlock()
			return
		}
		done, err := s.step()
		if err != nil {
			s.event("step error: %v", err)
			s.done = true
			s.looping = false
			s.mu.Unlock()
			return
		}
		if done {
			// Final barrier: persist it before finalizing, so the whole
			// run remains rewindable.
			if _, err := s.checkpointLocked(); err != nil {
				s.event("final checkpoint: %v", err)
			}
			rep := s.f.Finish()
			s.event("run complete: fingerprint %016x, %d violations", rep.Fingerprint, s.f.ViolationsLive())
			s.done = true
			s.looping = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
}

// ensureLoop restarts the step loop if the fleet can and should advance.
// Caller holds s.mu.
func (s *server) ensureLoop() {
	if !s.done && !s.paused && !s.looping {
		s.looping = true
		go s.stepLoop()
	}
}

// step advances one barrier and runs the violation watch + checkpoint
// cadence. Caller holds s.mu.
func (s *server) step() (bool, error) {
	done, err := s.f.Step()
	if err != nil {
		return false, err
	}
	s.steps++
	if v := s.f.ViolationsLive(); v > s.lastViol {
		s.event("invariant violation detected (%d live) at barrier %v", v, s.f.Now())
		s.lastViol = v
		s.autoReplay()
	}
	if !done && s.ckptEvery > 0 && s.steps%s.ckptEvery == 0 {
		if _, err := s.checkpointLocked(); err != nil {
			s.event("checkpoint: %v", err)
		}
	}
	return done, nil
}

// checkpointLocked captures and persists the current barrier. Caller
// holds s.mu and the fleet is at a barrier.
func (s *server) checkpointLocked() (*ckpt.Snapshot, error) {
	snap := ckpt.Capture(s.f)
	path, err := s.mgr.Save(snap)
	if err != nil {
		return nil, err
	}
	s.saved++
	s.event("checkpoint %d: barrier %v -> %s (fingerprint %016x)", s.saved, snap.At, path, snap.Fingerprint)
	return snap, nil
}

// autoReplay rewinds to the nearest checkpoint strictly before the
// violation barrier, replays forward with the flight recorder armed, and
// compares the replayed dumps against the live fleet's. Caller holds s.mu.
func (s *server) autoReplay() {
	violAt := s.f.Now()
	snap, err := s.mgr.Nearest(violAt - s.cfg.Step)
	if err != nil {
		s.event("auto-replay: %v", err)
		return
	}
	s.event("auto-replay: rewinding to checkpoint at %v", snap.At)
	g, err := ckpt.Restore(snap)
	if err != nil {
		s.event("auto-replay: restore failed: %v", err)
		return
	}
	for g.Now() < violAt {
		if _, err := g.Step(); err != nil {
			s.event("auto-replay: replay step: %v", err)
			return
		}
	}
	live, replay := s.f.FlightDumps(), g.FlightDumps()
	for i := range live {
		if live[i] != replay[i] {
			s.event("auto-replay: DIVERGENT flight dump for cell %d — replay is not faithful", i)
			return
		}
	}
	s.replays++
	s.event("auto-replay: flight dumps byte-identical to live run (%d cells) — violation reproduced deterministically", len(live))
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, map[string]any{
		"now_us":      int64(s.f.Now() / sim.Microsecond),
		"horizon_us":  int64(s.cfg.Horizon / sim.Microsecond),
		"done":        s.done,
		"paused":      s.paused,
		"steps":       s.steps,
		"violations":  s.f.ViolationsLive(),
		"checkpoints": s.saved,
		"replays":     s.replays,
		"ckpt_dir":    s.mgr.Dir,
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg := s.f.MergedMetrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, reg.Exposition())
	fmt.Fprintf(w, "# fingerprint %016x\n", reg.Fingerprint())
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, map[string]any{
		"faults": s.f.Faults(),
		"log":    s.events,
	})
}

// handleCheckpoint forces a checkpoint at the current barrier.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		http.Error(w, "run complete; final barrier is already on disk", http.StatusConflict)
		return
	}
	snap, err := s.checkpointLocked()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"at_us":       int64(snap.At / sim.Microsecond),
		"fingerprint": fmt.Sprintf("%016x", snap.Fingerprint),
		"path":        s.mgr.Path(snap.At),
	})
}

// handleRestore replaces the live fleet with one verified-restored from
// disk: ?at_us=N picks the nearest checkpoint at or before N microseconds
// (omitted = latest); ?hold=1 parks the restored fleet at its barrier
// instead of resuming the run (a later plain /restore resumes). The
// response carries the snapshot fingerprint so the caller can confirm
// which barrier came back.
func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	bound := sim.Time(-1)
	if v := r.URL.Query().Get("at_us"); v != "" {
		us, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad at_us: "+err.Error(), http.StatusBadRequest)
			return
		}
		bound = sim.Time(us) * sim.Microsecond
	}
	hold := r.URL.Query().Get("hold") == "1"
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := s.mgr.Nearest(bound)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	f, err := ckpt.Restore(snap)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.f = f
	s.steps = int(snap.Steps)
	s.lastViol = f.ViolationsLive()
	s.done = f.Now() >= s.cfg.Horizon
	s.paused = hold
	mode := "resuming run"
	if hold {
		mode = "holding at barrier"
	} else if s.done {
		mode = "already at horizon"
	}
	s.event("restore: fleet rewound to barrier %v (fingerprint %016x), verified against snapshot; %s", snap.At, snap.Fingerprint, mode)
	s.ensureLoop()
	writeJSON(w, map[string]any{
		"at_us":       int64(snap.At / sim.Microsecond),
		"fingerprint": fmt.Sprintf("%016x", snap.Fingerprint),
		"violations":  f.ViolationsLive(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
