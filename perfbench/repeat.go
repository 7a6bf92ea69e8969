package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// compilePrint holds the values of one cold compile that must repeat
// exactly: the allocation, the emitted code and what it simulates to.
type compilePrint struct {
	Obj        string // to 9 significant digits: summation order may move the last bits
	Moves      int
	Spills     int
	Instrs     int
	CodeCycles int64
	CodeInstrs int64
	LPIters    int `json:",omitempty"` // only where the solve path is fixed
}

// fleetPrint holds the simulated totals of one fleet stream.
type fleetPrint struct {
	Cycles, Instrs, Stalls, Batches int64
	ChipCycles                      [fleetChips]int64
}

// fingerprint is everything a run of one seed must reproduce exactly,
// within the run and across runs of the same build.
type fingerprint struct {
	Compile  *compilePrint
	Fleet    *fleetPrint
	Outcomes map[string]int // reply outcomes of the first serve pass
}

func (f *fingerprint) sameCompile(c compilePrint) error {
	if f.Compile == nil {
		f.Compile = &c
		return nil
	}
	if *f.Compile != c {
		return fmt.Errorf("compile gave %+v, an earlier compile %+v", c, *f.Compile)
	}
	return nil
}

func (f *fingerprint) sameFleet(p fleetPrint) error {
	if f.Fleet == nil {
		f.Fleet = &p
		return nil
	}
	if *f.Fleet != p {
		return fmt.Errorf("fleet stream gave %+v, an earlier stream %+v", p, *f.Fleet)
	}
	return nil
}

// repeatDir keeps one fingerprint per build and set of arguments, so
// a later run with the same arguments is checked against the first.
var repeatDir = filepath.Join(".bench_build", "repeat")

// checkRepeat compares this run's fingerprint with the one an earlier
// run of the same binary and arguments recorded, or records it.
func (b *bench) checkRepeat(ps *pass) {
	fp := b.print
	fp.Outcomes = map[string]int{}
	for _, r := range ps.replies {
		fp.Outcomes[r.outcome]++
	}
	cur, err := json.Marshal(fp)
	if err != nil {
		b.l.op("encode fingerprint", err)
		return
	}
	id, err := buildID()
	if err != nil {
		b.l.op("identify the benchmark build", err)
		return
	}
	path := filepath.Join(repeatDir, fmt.Sprintf("%s-%s-seed%d-%s.json", id, b.prog.name, b.seed, b.args))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(repeatDir, 0o755); err != nil {
			b.l.op("record fingerprint", err)
			return
		}
		b.l.op("record fingerprint", os.WriteFile(path, cur, 0o644))
	case err != nil:
		b.l.op("read earlier fingerprint", err)
	case !bytes.Equal(prev, cur):
		b.l.op("repeat an earlier run of this seed", fmt.Errorf("fingerprint %s, earlier run %s", cur, prev))
	default:
		b.l.op("repeat an earlier run of this seed", nil)
	}
}

// buildID hashes the running executable, so fingerprints of different
// builds are never compared.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
