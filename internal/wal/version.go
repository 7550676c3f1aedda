package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"oms/internal/store"
)

// verMagic begins every refined-version file; bump the trailing digit on
// incompatible format changes.
var verMagic = [8]byte{'O', 'M', 'S', 'V', 'E', 'R', 'S', '1'}

// versionName returns the file name of refined version v inside a
// session directory. Fixed-width decimal keeps lexical order equal to
// numeric order.
func versionName(v int32) string { return fmt.Sprintf("version-%06d", v) }

// SaveVersion atomically persists one refined result version next to the
// log, by tmp + fsync + rename + dir-fsync: a crash mid-write leaves at
// worst a stale tmp file, never a half-written version — so recovery can
// only ever see whole versions.
// Version 0 is the parts-free baseline record: the one-pass result's
// measured edge cut, persisted so "best" version selection survives a
// crash (the assignment itself is already reproducible from the log).
func (l *Log) SaveVersion(v store.RefinedVersion) error {
	if v.Version < 0 {
		return fmt.Errorf("wal: negative refined version %d", v.Version)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: save version on closed log")
	}
	body := encodeVersion(v)
	out := make([]byte, 0, len(verMagic)+4+len(body))
	out = append(out, verMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return writeAtomic(l.dir, versionName(v.Version), out)
}

// LoadVersion reads one saved version back, CRC-verified. A missing,
// torn, or mislabeled file is an error — the caller must never serve a
// version the store cannot prove whole.
func (l *Log) LoadVersion(version int32) (store.RefinedVersion, error) {
	l.mu.Lock()
	dir := l.dir
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return store.RefinedVersion{}, fmt.Errorf("wal: load version on closed log")
	}
	b, err := os.ReadFile(filepath.Join(dir, versionName(version)))
	if err != nil {
		return store.RefinedVersion{}, err
	}
	v, err := decodeVersion(b, true)
	if err != nil {
		return store.RefinedVersion{}, err
	}
	if v.Version != version {
		return store.RefinedVersion{}, fmt.Errorf("wal: version file %d claims version %d", version, v.Version)
	}
	return v, nil
}

// encodeVersion lays out the version body (everything after magic and
// CRC): version, pass, edge cut, parts.
func encodeVersion(v store.RefinedVersion) []byte {
	buf := make([]byte, 0, 16+4+4*len(v.Parts))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Version))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Pass))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.EdgeCut))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Parts)))
	for _, p := range v.Parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	return buf
}

// decodeVersion parses a version file's contents. withParts=false still
// verifies the whole-file CRC and the declared length but decodes only
// the metadata header, leaving Parts nil — recovery uses it so a large
// version ledger never materializes O(n) per version in memory (reads
// reload cold assignments on demand via LoadVersion).
func decodeVersion(b []byte, withParts bool) (store.RefinedVersion, error) {
	var v store.RefinedVersion
	fail := func() (store.RefinedVersion, error) {
		return store.RefinedVersion{}, fmt.Errorf("wal: corrupt refined version")
	}
	if len(b) < len(verMagic)+4 || [8]byte(b[:8]) != verMagic {
		return fail()
	}
	sum := binary.LittleEndian.Uint32(b[8:])
	body := b[12:]
	if crc32.ChecksumIEEE(body) != sum {
		return fail()
	}
	if len(body) < 20 {
		return fail()
	}
	v.Version = int32(binary.LittleEndian.Uint32(body[0:]))
	v.Pass = int32(binary.LittleEndian.Uint32(body[4:]))
	v.EdgeCut = int64(binary.LittleEndian.Uint64(body[8:]))
	n := int64(binary.LittleEndian.Uint32(body[16:]))
	rest := body[20:]
	if int64(len(rest)) != 4*n || v.Version < 0 || v.Pass < 0 || v.EdgeCut < 0 {
		return fail()
	}
	if withParts {
		v.Parts = make([]int32, n)
		for i := range v.Parts {
			v.Parts[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
		}
	}
	return v, nil
}

// recoverVersions loads every whole refined version in a session
// directory, ascending by version number, metadata only (Parts stays
// nil; the session reloads assignments on demand, so recovery cost is
// O(files), not O(n * versions) memory). Torn or corrupt version files
// are skipped — they are the crash's bytes, and serving them would be
// serving a result no client was ever promised. A file whose name and
// encoded version number disagree is treated as corrupt too.
func recoverVersions(dir string) []store.RefinedVersion {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []store.RefinedVersion
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "version-") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		v, err := decodeVersion(b, false)
		if err != nil || versionName(v.Version) != name {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// writeAtomic writes b to dir/name via tmp + fsync + rename + dir-fsync.
func writeAtomic(dir, name string, b []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
