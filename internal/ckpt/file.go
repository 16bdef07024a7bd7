package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"slingshot/internal/sim"
)

// Manager persists snapshots in a directory, one file per barrier, named
// ckpt-<microseconds>.ss so lexical order is barrier order. Writes go to
// a temp file in the same directory followed by an atomic rename, so a
// crash mid-write can never leave a partial snapshot under a final name —
// readers observe either nothing or a complete, fingerprint-valid file.
type Manager struct {
	Dir string
}

const (
	filePrefix = "ckpt-"
	fileSuffix = ".ss"
	tmpPrefix  = ".tmp-ckpt-"
)

// Path returns the final file path for a barrier time.
func (m *Manager) Path(at sim.Time) string {
	return filepath.Join(m.Dir, fmt.Sprintf("%s%012d%s", filePrefix, int64(at/sim.Microsecond), fileSuffix))
}

// Save encodes and atomically persists the snapshot, returning its path.
func (m *Manager) Save(s *Snapshot) (string, error) {
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	final := m.Path(s.At)
	tmp, err := os.CreateTemp(m.Dir, tmpPrefix)
	if err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(s.Encode()); err != nil {
		tmp.Close()
		return "", fmt.Errorf("ckpt: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("ckpt: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	return final, nil
}

// Load reads and validates one snapshot file.
func (m *Manager) Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// List returns the saved barrier times in ascending order. Temp files and
// foreign names are ignored.
func (m *Manager) List() ([]sim.Time, error) {
	entries, err := os.ReadDir(m.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []sim.Time
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		us, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix), 10, 64)
		if err != nil || us < 0 {
			continue
		}
		out = append(out, sim.Time(us)*sim.Microsecond)
	}
	slices.Sort(out)
	return out, nil
}

// Nearest loads the latest snapshot at or before the given barrier time —
// the auto-replay's rewind target. A negative bound means "latest".
func (m *Manager) Nearest(at sim.Time) (*Snapshot, error) {
	ats, err := m.List()
	if err != nil {
		return nil, err
	}
	best := sim.Time(-1)
	found := false
	for _, t := range ats {
		if at >= 0 && t > at {
			break
		}
		best, found = t, true
	}
	if !found {
		return nil, fmt.Errorf("ckpt: no snapshot at or before %v in %s", at, m.Dir)
	}
	return m.Load(m.Path(best))
}
