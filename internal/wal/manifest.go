package wal

// The MANIFEST file is the root recovery starts from: which sequence
// number the last durable checkpoint covers, which checkpoint files
// make up the chain — a base (a full capture) and the deltas over it —
// and the oldest WAL segment that may still hold uncheckpointed
// records. Recovery reads the manifest first, then the base, then the
// deltas, then replays surviving segments — so startup cost is bounded
// by live state plus the uncheckpointed tail, not by mutation history.
//
// File layout: one frame of durable's length + CRC-32C frame codec
// behind an 8-byte prefix, filling the file exactly; the payload is one
// JSON document.
//
//	magic   [8]byte  "TBMMANI1"
//	length  uint32   JSON payload length
//	crc     uint32   CRC-32C over the payload
//	payload [length]byte
//
// The manifest is tiny and rewritten whole on every checkpoint through
// durable.ReplaceFile, so a crash leaves either the old manifest or the
// new one, never a torn file. A corrupt or missing manifest is
// recoverable: the catalog rebuilds the chain from the checkpoint
// files' own heads, and replaying every segment over it is always safe
// (sequence numbers dedupe) — so decode failures degrade to that path
// rather than refusing to start.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"timedmedia/internal/durable"
)

const manifestName = "MANIFEST"

var manifestMagic = [8]byte{'T', 'B', 'M', 'M', 'A', 'N', 'I', '1'}

// MaxManifestLen bounds the JSON payload so a corrupt length field
// cannot drive an unbounded allocation.
const MaxManifestLen = 16 << 20

// ErrManifestCorrupt reports a manifest that failed framing or JSON
// validation.
var ErrManifestCorrupt = errors.New("wal: corrupt manifest")

// Manifest describes the durable recovery state of a database
// directory.
type Manifest struct {
	// CheckpointSeq is the last mutation sequence number covered by the
	// checkpoint chain. Journal records with Seq <= CheckpointSeq are
	// superseded.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Checkpoints lists the chain's checkpoint file numbers in the
	// order they apply: the base first, then its deltas. A full
	// checkpoint leaves the base alone.
	Checkpoints []uint64 `json:"checkpoints,omitempty"`
	// OldestSegment is the lowest WAL segment index that may still hold
	// records newer than CheckpointSeq. Segments below it are fully
	// superseded and are deleted by compaction (possibly after a crash
	// left them behind — replaying them anyway is harmless).
	OldestSegment uint64 `json:"oldest_segment"`
}

// ManifestFile returns the manifest path inside a database directory.
func ManifestFile(dir string) string { return filepath.Join(dir, manifestName) }

// EncodeManifest frames m for durable storage.
func EncodeManifest(m *Manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("wal: encode manifest: %w", err)
	}
	return durable.AppendFrame(nil, manifestMagic[:], payload), nil
}

// DecodeManifest validates a manifest frame and returns the manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic) || [8]byte(data) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrManifestCorrupt)
	}
	payload, rest, err := durable.DecodeFrame(data[len(manifestMagic):], MaxManifestLen)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%d bytes after the frame", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	for i := 1; i < len(m.Checkpoints); i++ {
		if m.Checkpoints[i] <= m.Checkpoints[i-1] {
			return nil, fmt.Errorf("%w: checkpoint chain not ascending", ErrManifestCorrupt)
		}
	}
	return &m, nil
}

// WriteManifest durably replaces dir's manifest (no backup is kept: a
// lost manifest only costs rebuilding the chain from the file heads).
func WriteManifest(dir string, m *Manifest) error {
	data, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	err = durable.ReplaceFile(ManifestFile(dir), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// LoadManifest reads dir's manifest. A missing file returns (nil, nil):
// the caller rebuilds the chain from the file heads. A corrupt file
// returns ErrManifestCorrupt; callers may likewise rebuild after
// quarantining it.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(ManifestFile(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	return DecodeManifest(data)
}
