package core

import (
	"encoding/binary"
	"errors"

	"umzi/internal/storage"
)

// Index meta records persist the evolve watermark — maxCoveredGroomedID
// and IndexedPSN (§5.5) — in shared storage as sequenced records under
// <name>/meta/ (storage.LoadRecord, storage.WriteRecord).

const metaMagic = "UMZIMETA"

func metaPrefix(prefix string) string { return prefix + "/meta/" }

func metaName(prefix string, seq uint64) string {
	return storage.RecordName(metaPrefix(prefix), seq)
}

// metaRecord is the decoded watermark pair.
type metaRecord struct{ maxCovered, indexedPSN uint64 }

func decodeMeta(data []byte) (metaRecord, error) {
	if len(data) != 8+16 || string(data[:8]) != metaMagic {
		return metaRecord{}, errors.New("core: bad meta record")
	}
	return metaRecord{binary.BigEndian.Uint64(data[8:16]), binary.BigEndian.Uint64(data[16:24])}, nil
}

// writeMeta persists the current watermark as a fresh meta object.
func (ix *Index) writeMeta() error {
	buf := make([]byte, 0, 8+16)
	buf = append(buf, metaMagic...)
	buf = binary.BigEndian.AppendUint64(buf, ix.maxCovered.Load())
	buf = binary.BigEndian.AppendUint64(buf, ix.indexedPSN.Load())
	// A failed prune leaves only superseded records; the next write retries it.
	_, err := storage.WriteRecord(ix.store, metaPrefix(ix.cfg.Name), ix.metaSeq.Add(1), buf)
	return err
}

// InspectMeta reads the newest meta record of the index stored under
// prefix without opening (and thereby repairing) the index: the evolve
// watermark pair (maxCoveredGroomedID, IndexedPSN). ok is false when the
// index has no readable meta record. Offline tooling
// (cmd/umzi-inspect) uses it; engines use Open.
func InspectMeta(store storage.ObjectStore, prefix string) (maxCovered, indexedPSN uint64, ok bool, err error) {
	m, _, ok, err := storage.LoadRecord(store, metaPrefix(prefix), decodeMeta)
	return m.maxCovered, m.indexedPSN, ok, err
}

// readMeta loads the newest readable meta record (ok is false when there
// is none) and the newest listed meta sequence, which the next writeMeta
// must exceed.
func (ix *Index) readMeta() (maxCovered, indexedPSN uint64, seq uint64, ok bool, err error) {
	m, seq, ok, err := storage.LoadRecord(ix.store, metaPrefix(ix.cfg.Name), decodeMeta)
	return m.maxCovered, m.indexedPSN, seq, ok, err
}
