// Package modelstore is the durable, versioned snapshot store for
// fitted ensembles: the model-side twin of the feedback label WAL. A
// snapshot persists everything the serving layer needs to answer
// predictions after a restart without retraining — the fitted committee
// (via the automl/ml fitted-state codecs), the training set it was fit
// on (so drift retrains and ALE recomputation can continue), and the
// metadata that anchors it in the feedback timeline (version lineage,
// seed, and the FeedbackRows high-water mark that tells recovery which
// WAL records are already folded in).
//
// # File format
//
// One snapshot per file, named v%020d.snap (zero-padded so
// lexicographic order is version order), inside <dir>/<model>/:
//
//	[8]  magic "ALFBSNAP"
//	[4]  u32 format version (currently 1)
//	     section × 3 (meta, train, ensemble), each:
//	[4]  u32 payload length (little-endian)
//	[4]  u32 CRC-32 (IEEE) of the payload
//	[n]  payload
//
// The framing is the feedback WAL's discipline applied per section: a
// torn tail or a flipped bit fails the length or CRC check and the
// whole file is treated as absent, never partially applied. The meta
// section additionally records an FNV-1a fingerprint of the train and
// ensemble payloads, cross-checking that the three sections belong to
// the same write.
//
// Writes go through the repository's atomic publish sequence — temp
// file, fsync, rename, directory fsync — so a crash leaves either the
// complete new snapshot or no trace of it. Reads scan versions newest
// first and return the first file that decodes; corrupt or torn
// snapshots are skipped (the fall-back-to-prior-version policy), so
// recovery degrades by at most one retrain's worth of history, never to
// an unusable store.
//
// A manifest.json alongside the snapshots mirrors the version history
// for humans and external tooling. It is advisory: written atomically
// after each save, never read back for recovery decisions (the
// CRC-validated snapshot files are the source of truth).
package modelstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/netml/alefb/internal/automl"
	"github.com/netml/alefb/internal/data"
	"github.com/netml/alefb/internal/faultinject"
	"github.com/netml/alefb/internal/ml"
	"github.com/netml/alefb/internal/wire"
)

const (
	magic         = "ALFBSNAP"
	formatVersion = 1
	snapSuffix    = ".snap"
	manifestFile  = "manifest.json"
)

// ErrNotFound reports that no decodable snapshot exists for the request
// (no directory, no files, or an explicitly missing version).
var ErrNotFound = errors.New("modelstore: snapshot not found")

// Snapshot is one durable model version: the fitted ensemble, its
// training set, and the lineage metadata recovery and rollback key on.
type Snapshot struct {
	// Version is the serving-layer snapshot version this file persists.
	Version int64
	// Parent is the version this one was retrained from (0 for the
	// bootstrap snapshot).
	Parent int64
	// Seed is the search seed the ensemble was fit with.
	Seed uint64
	// FeedbackRows is the feedback-store high-water mark folded into
	// Train: recovery replays only WAL records past this count.
	FeedbackRows int64
	// ValScore is the ensemble's holdout score at persist time.
	ValScore float64
	// SavedAtUnixMS is the wall-clock persist time (advisory, for
	// status age reporting).
	SavedAtUnixMS int64

	// Ensemble is the fitted committee, predict-ready after decode.
	Ensemble *automl.Ensemble
	// Train is the training set the ensemble was fit on, including any
	// feedback rows folded in up to FeedbackRows.
	Train *data.Dataset
}

// Config configures a Store.
type Config struct {
	// Dir is the root directory; each model gets a subdirectory.
	Dir string
	// Retain is how many snapshot versions to keep per model (older
	// ones are pruned after each save). 0 means the default of 4;
	// negative means keep everything.
	Retain int
	// Fault injects snapshot write/load faults for the chaos suites.
	Fault *faultinject.Injector
}

// Store reads and writes versioned model snapshots under one root
// directory. Methods are safe for concurrent use.
type Store struct {
	dir    string
	retain int
	fault  *faultinject.Injector

	mu    sync.Mutex
	loads int // decode attempt counter, keys load fault injection
}

// New returns a store over cfg.Dir. The directory is created lazily on
// first save, so a read-only store over a missing directory is valid
// (Has and LoadLatest simply report nothing).
func New(cfg Config) *Store {
	retain := cfg.Retain
	if retain == 0 {
		retain = 4
	}
	return &Store{dir: cfg.Dir, retain: retain, fault: cfg.Fault}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) modelDir(model string) string { return filepath.Join(s.dir, model) }

func snapName(v int64) string { return fmt.Sprintf("v%020d%s", v, snapSuffix) }

// Save persists snap for model durably: encode, temp file, fsync,
// rename into place, directory fsync, then retention pruning and an
// advisory manifest update. On error nothing decodable is left at the
// final path (an injected Panic fault deliberately leaves a torn
// prefix, simulating a crash mid-write — which recovery must skip).
func (s *Store) Save(model string, snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	dir := s.modelDir(model)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("modelstore: create %s: %w", dir, err)
	}
	blob, err := Encode(snap)
	if err != nil {
		return err
	}
	final := filepath.Join(dir, snapName(snap.Version))

	switch s.fault.SnapshotWriteFault(snap.Version) {
	case faultinject.Error:
		return fmt.Errorf("modelstore: write v%d: %w", snap.Version, faultinject.ErrInjected)
	case faultinject.Panic:
		// Crash mid-write: a torn prefix lands at the final path. (A
		// real crash between rename and dir-fsync can also leave a
		// complete-but-unsynced file; the torn prefix is the harder
		// case, so it is the one injected.)
		_ = os.WriteFile(final, blob[:len(blob)/2], 0o644)
		return fmt.Errorf("modelstore: torn write v%d: %w", snap.Version, faultinject.ErrInjected)
	}

	tmp, err := os.CreateTemp(dir, snapName(snap.Version)+".tmp-*")
	if err != nil {
		return fmt.Errorf("modelstore: snapshot temp: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: publish snapshot: %w", err)
	}
	if dirF, err := os.Open(dir); err == nil {
		_ = dirF.Sync()
		dirF.Close()
	}

	s.pruneLocked(model)
	s.writeManifestLocked(model)
	return nil
}

// LoadLatest returns the newest decodable snapshot for model, skipping
// corrupt or torn files (each skip is the prior-version fall-back the
// chaos suites exercise). ErrNotFound when no version decodes.
func (s *Store) LoadLatest(model string) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.versionsLocked(model)
	for i := len(versions) - 1; i >= 0; i-- {
		snap, err := s.loadLocked(model, versions[i])
		if err == nil {
			return snap, nil
		}
	}
	return nil, fmt.Errorf("%w (model %q)", ErrNotFound, model)
}

// LoadVersion returns one specific snapshot version. A missing file is
// ErrNotFound; a corrupt one is a decode error (no silent fall-back —
// rollback to an explicit version must not quietly land elsewhere).
func (s *Store) LoadVersion(model string, v int64) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(filepath.Join(s.modelDir(model), snapName(v))); err != nil {
		return nil, fmt.Errorf("%w (model %q version %d)", ErrNotFound, model, v)
	}
	return s.loadLocked(model, v)
}

// loadLocked reads and decodes one snapshot file, honoring injected
// load faults (counted per decode attempt).
func (s *Store) loadLocked(model string, v int64) (*Snapshot, error) {
	n := s.loads
	s.loads++
	if s.fault.SnapshotLoadFault(n) {
		return nil, fmt.Errorf("modelstore: load %d: %w", n, faultinject.ErrInjected)
	}
	blob, err := os.ReadFile(filepath.Join(s.modelDir(model), snapName(v)))
	if err != nil {
		return nil, fmt.Errorf("modelstore: read v%d: %w", v, err)
	}
	return Decode(blob)
}

// Has reports whether any snapshot file exists for model (decodability
// is not checked — recovery decides that).
func (s *Store) Has(model string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versionsLocked(model)) > 0
}

// Versions returns model's on-disk snapshot versions in ascending
// order (nil when none).
func (s *Store) Versions(model string) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versionsLocked(model)
}

// PreviousVersion returns the newest on-disk version strictly below v,
// or false when none exists.
func (s *Store) PreviousVersion(model string, v int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.versionsLocked(model)
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] < v {
			return versions[i], true
		}
	}
	return 0, false
}

// Models returns the model names with at least one snapshot file.
func (s *Store) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && len(s.versionsLocked(e.Name())) > 0 {
			out = append(out, e.Name())
		}
	}
	return out
}

func (s *Store) versionsLocked(model string) []int64 {
	entries, err := os.ReadDir(s.modelDir(model))
	if err != nil {
		return nil
	}
	var out []int64
	for _, e := range entries {
		name := e.Name()
		if len(name) != len(snapName(0)) || name[0] != 'v' || filepath.Ext(name) != snapSuffix {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(name, "v%d.snap", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pruneLocked removes versions beyond the retention knob, oldest first.
func (s *Store) pruneLocked(model string) {
	if s.retain < 0 {
		return
	}
	versions := s.versionsLocked(model)
	for len(versions) > s.retain {
		_ = os.Remove(filepath.Join(s.modelDir(model), snapName(versions[0])))
		versions = versions[1:]
	}
}

// manifestEntry is one version's row in the advisory manifest.
type manifestEntry struct {
	Version       int64   `json:"version"`
	Parent        int64   `json:"parent"`
	Seed          uint64  `json:"seed"`
	FeedbackRows  int64   `json:"feedback_rows"`
	ValScore      float64 `json:"val_score"`
	SavedAtUnixMS int64   `json:"saved_at_unix_ms"`
	Fingerprint   string  `json:"fingerprint"`
}

// writeManifestLocked rebuilds manifest.json from the decodable
// snapshot files. Best-effort and advisory: failures are swallowed, and
// recovery never reads it.
func (s *Store) writeManifestLocked(model string) {
	var entries []manifestEntry
	for _, v := range s.versionsLocked(model) {
		blob, err := os.ReadFile(filepath.Join(s.modelDir(model), snapName(v)))
		if err != nil {
			continue
		}
		meta, fp, err := decodeMetaOnly(blob)
		if err != nil {
			continue
		}
		meta.Fingerprint = fmt.Sprintf("%016x", fp)
		entries = append(entries, meta)
	}
	blob, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return
	}
	dir := s.modelDir(model)
	tmp, err := os.CreateTemp(dir, manifestFile+".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(blob); err == nil {
		tmp.Close()
		_ = os.Rename(tmp.Name(), filepath.Join(dir, manifestFile))
	} else {
		tmp.Close()
	}
	os.Remove(tmp.Name())
}

// --- encoding -------------------------------------------------------------

// appendSection frames payload with its length and CRC-32, the feedback
// WAL's record discipline applied per section.
func appendSection(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// readSection validates and returns the next framed section.
func readSection(blob []byte) (payload, rest []byte, err error) {
	if len(blob) < 8 {
		return nil, nil, fmt.Errorf("modelstore: truncated section header")
	}
	n := binary.LittleEndian.Uint32(blob[:4])
	crc := binary.LittleEndian.Uint32(blob[4:8])
	body := blob[8:]
	if uint32(len(body)) < n {
		return nil, nil, fmt.Errorf("modelstore: torn section (%d of %d bytes)", len(body), n)
	}
	payload = body[:n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, fmt.Errorf("modelstore: section CRC mismatch")
	}
	return payload, body[n:], nil
}

// fingerprint is FNV-1a over the train and ensemble payloads: a cheap
// cross-section integrity check recorded in the meta section.
func fingerprint(train, ensemble []byte) uint64 {
	h := fnv.New64a()
	h.Write(train)
	h.Write(ensemble)
	return h.Sum64()
}

// Encode renders snap in the snapshot file format: magic, format
// version, then the CRC-framed meta, train and ensemble sections. The
// same snapshot always encodes to the same bytes.
func Encode(snap *Snapshot) ([]byte, error) {
	train := appendDataset(nil, snap.Train)
	ensemble, err := automl.AppendEnsemble(nil, snap.Ensemble)
	if err != nil {
		return nil, fmt.Errorf("modelstore: encode ensemble: %w", err)
	}

	var meta []byte
	meta = wire.AppendI64(meta, snap.Version)
	meta = wire.AppendI64(meta, snap.Parent)
	meta = wire.AppendU64(meta, snap.Seed)
	meta = wire.AppendI64(meta, snap.FeedbackRows)
	meta = wire.AppendF64(meta, snap.ValScore)
	meta = wire.AppendI64(meta, snap.SavedAtUnixMS)
	meta = wire.AppendU64(meta, fingerprint(train, ensemble))

	buf := make([]byte, 0, len(magic)+4+len(meta)+len(train)+len(ensemble)+24)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = appendSection(buf, meta)
	buf = appendSection(buf, train)
	buf = appendSection(buf, ensemble)
	return buf, nil
}

// decodeHeader validates magic + format and returns the section bytes.
func decodeHeader(blob []byte) ([]byte, error) {
	if len(blob) < len(magic)+4 || string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("modelstore: bad magic")
	}
	if f := binary.LittleEndian.Uint32(blob[len(magic) : len(magic)+4]); f != formatVersion {
		return nil, fmt.Errorf("modelstore: unsupported format %d", f)
	}
	return blob[len(magic)+4:], nil
}

// Decode parses one snapshot file, the inverse of Encode. A torn,
// truncated or bit-flipped file fails its length, CRC or fingerprint
// check and is rejected whole; the decoded ensemble is predict-ready
// with no refit and must classify into its training set's classes.
func Decode(blob []byte) (*Snapshot, error) {
	rest, err := decodeHeader(blob)
	if err != nil {
		return nil, err
	}
	meta, rest, err := readSection(rest)
	if err != nil {
		return nil, err
	}
	train, rest, err := readSection(rest)
	if err != nil {
		return nil, err
	}
	ensemble, _, err := readSection(rest)
	if err != nil {
		return nil, err
	}

	r := wire.NewReader(meta)
	snap := &Snapshot{
		Version:      r.I64(),
		Parent:       r.I64(),
		Seed:         r.U64(),
		FeedbackRows: r.I64(),
		ValScore:     r.F64(),
	}
	snap.SavedAtUnixMS = r.I64()
	fp := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("modelstore: decode meta: %w", err)
	}
	if fp != fingerprint(train, ensemble) {
		return nil, fmt.Errorf("modelstore: fingerprint mismatch")
	}

	tr := wire.NewReader(train)
	snap.Train, err = decodeDataset(tr)
	if err != nil {
		return nil, err
	}
	er := wire.NewReader(ensemble)
	snap.Ensemble, err = automl.DecodeEnsemble(er)
	if err != nil {
		return nil, err
	}
	if k := snap.Train.Schema.NumClasses(); snap.Ensemble.NumClasses != k {
		return nil, fmt.Errorf("modelstore: ensemble has %d classes, its training set %d", snap.Ensemble.NumClasses, k)
	}
	nf := snap.Train.Schema.NumFeatures()
	for i, m := range snap.Ensemble.Members {
		if err := ml.CheckInputWidth(m.Model, nf); err != nil {
			return nil, fmt.Errorf("modelstore: member %d: %w", i, err)
		}
	}
	return snap, nil
}

// decodeMetaOnly extracts the manifest fields without decoding the
// model payloads (manifest rebuilds stay cheap).
func decodeMetaOnly(blob []byte) (manifestEntry, uint64, error) {
	rest, err := decodeHeader(blob)
	if err != nil {
		return manifestEntry{}, 0, err
	}
	meta, _, err := readSection(rest)
	if err != nil {
		return manifestEntry{}, 0, err
	}
	r := wire.NewReader(meta)
	e := manifestEntry{
		Version:      r.I64(),
		Parent:       r.I64(),
		Seed:         r.U64(),
		FeedbackRows: r.I64(),
		ValScore:     r.F64(),
	}
	e.SavedAtUnixMS = r.I64()
	fp := r.U64()
	return e, fp, r.Err()
}

// appendDataset encodes schema + rows. The schema travels inside the
// snapshot so recovery needs no side channel to rebuild feature bounds
// and class names.
func appendDataset(buf []byte, d *data.Dataset) []byte {
	buf = wire.AppendU32(buf, uint32(len(d.Schema.Features)))
	for _, f := range d.Schema.Features {
		buf = wire.AppendString(buf, f.Name)
		buf = wire.AppendF64(buf, f.Min)
		buf = wire.AppendF64(buf, f.Max)
		buf = wire.AppendBool(buf, f.Integer)
	}
	buf = wire.AppendStrings(buf, d.Schema.Classes)
	buf = wire.AppendF64Matrix(buf, d.X)
	return wire.AppendInts(buf, d.Y)
}

func decodeDataset(r *wire.Reader) (*data.Dataset, error) {
	schema := &data.Schema{}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("modelstore: decode schema: %w", err)
	}
	if n > 0 {
		schema.Features = make([]data.Feature, n)
		for i := range schema.Features {
			schema.Features[i] = data.Feature{
				Name:    r.String(),
				Min:     r.F64(),
				Max:     r.F64(),
				Integer: r.Bool(),
			}
		}
	}
	schema.Classes = r.Strings()
	d := &data.Dataset{Schema: schema, X: r.F64Matrix(), Y: r.Ints()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("modelstore: decode dataset: %w", err)
	}
	return d, nil
}
