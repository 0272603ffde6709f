// Package resultstore is the crash-safe, content-addressed, persistent
// result cache under the experiment runner: a durable promotion of the
// in-memory memo table that survives process death, detects its own
// corruption, and degrades to a miss instead of ever serving bad data.
//
// Layout: one append-only journal (store.journal) of length-prefixed,
// CRC32C-checksummed records, each carrying the canonical key — a
// SHA-256 over the normalized core.Config, the workload name, the
// dataset scale, and a version string (git describe + schema version;
// see core.Config.Hash) — plus the full config, workload, scale and
// report for belt-and-braces verification on read. A fixed header
// identifies the file and its schema; records whose key version differs
// from the running binary's simply never match a lookup, so a stale
// store cannot poison a new build, and records written at one -scale
// never answer a lookup at another.
//
// Durability: writes go through an injectable positional File (the
// fault package wraps it to inject torn writes, bit flips, short reads
// and ENOSPC). The header is fsynced at creation; record appends are
// batched — fsync every SyncEvery puts (default 16, 1 = every record)
// and always on Flush/Close. A failed append rolls the journal back to
// its last good length so a partial write can never become mid-journal
// garbage under later appends.
//
// Recovery: Open scans the whole journal. A torn tail — a record that
// runs past EOF or whose trailing checksum fails — is truncated away; a
// corrupt record in the middle is quarantined to quarantine.jsonl
// (skip-and-warn, never abort) and the scan resynchronizes on the next
// record magic. Lookups re-verify the checksum on every read, so a bit
// flip after open is detected, quarantined, and answered as a miss.
//
// Eviction: with MaxBytes set, the store compacts in place once the
// journal outgrows the cap — live records are kept most-recently-used
// first until they fit, rewritten to a temp file, fsynced, and renamed
// over the journal atomically (then the directory is fsynced), so a
// crash at any instant leaves either the old journal or the new one.
//
// One process owns a store directory at a time — Open takes an advisory
// lock on DIR/store.lock and fails with a "store directory … in use"
// error while another process (or another open Store in this process)
// holds it, so two writers can never interleave appends or race a
// compaction's rename. Methods are safe for concurrent use within the
// owning process.
package resultstore

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
)

// SchemaVersion is the journal format version. It participates in both
// the file header (a journal written under another schema is archived,
// not parsed) and every record key (a report produced under another
// schema never answers a lookup). Version 2 added the dataset scale to
// the record identity and key hash.
const SchemaVersion = 2

const (
	journalName    = "store.journal"
	quarantineName = "quarantine.jsonl"
	lockName       = "store.lock"

	headerLen = 16
	recHdrLen = 12 // magic + payload length + CRC32C, uint32 LE each

	// maxRecordLen bounds one record's payload; anything larger in the
	// length field is corruption by construction.
	maxRecordLen = 64 << 20

	// defaultSyncEvery is the record-append fsync batch size when
	// Options.SyncEvery is zero.
	defaultSyncEvery = 16
)

var (
	headerMagic = [4]byte{'M', 'S', 'R', 'S'}
	recordMagic = [4]byte{'M', 'S', 'R', 'C'}

	// castagnoli is the CRC32C polynomial table (hardware-accelerated on
	// amd64/arm64), the checksum every record carries.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// File is the store's view of its journal: positional reads and writes,
// truncation, durability. *os.File (wrapped for Size) satisfies it; the
// fault package wraps a File to inject disk failures.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// osFile adapts *os.File to File.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// OpenOSFile is the default Options.OpenFile: a read-write *os.File
// created as needed.
func OpenOSFile(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Options configures Open.
type Options struct {
	// Dir is the store directory (created if missing): store.journal
	// plus quarantine.jsonl live here.
	Dir string
	// Version is the code identity mixed into every record key,
	// typically `git describe`. The schema version is appended
	// automatically. Records keyed under any other version are invisible
	// to this store instance.
	Version string
	// MaxBytes caps the journal size; exceeding it triggers an LRU
	// compaction pass. 0 = unbounded.
	MaxBytes int64
	// SyncEvery fsyncs the journal after this many record appends
	// (0 = default 16, 1 = every record). The header and every
	// compaction are always fsynced; Flush and Close sync pending
	// records regardless.
	SyncEvery int
	// OpenFile opens journal files (the live journal and compaction
	// temporaries). nil = OpenOSFile. Injectable for disk-fault tests.
	OpenFile func(path string) (File, error)
	// Log receives recovery and corruption warnings, one line each.
	// nil = discard.
	Log io.Writer
}

// Stats is the store's counter snapshot.
type Stats struct {
	Records int   // live records in the index
	Bytes   int64 // journal size on disk

	Hits      uint64 // lookups answered from the journal
	Misses    uint64 // lookups not present (or failing verification)
	Puts      uint64 // records appended
	PutErrors uint64 // appends that failed (e.g. ENOSPC); journal rolled back

	Evictions   uint64 // records dropped by LRU compaction
	Compactions uint64 // compaction passes completed

	Recovered      uint64 // records restored by the opening scan
	Corrupt        uint64 // corrupt records/runs detected and quarantined (open + read)
	TruncatedBytes int64  // torn-tail bytes truncated at open or rolled back on a failed append
}

// entry locates one live record in the journal.
type entry struct {
	off     int64
	size    int64 // whole record: header + payload
	lastUse uint64
}

// payload is a record's JSON body. Workload, Scale, Version and Config
// ride along so a lookup can verify the record answers the question
// asked even under a (cosmically unlikely) key collision, and so humans
// can inspect quarantined records.
type payload struct {
	Key      string       `json:"key"`
	Version  string       `json:"version"`
	Scale    string       `json:"scale"`
	Workload string       `json:"workload"`
	Config   core.Config  `json:"config"`
	Report   *core.Report `json:"report"`
}

// Store is an open result store. Safe for concurrent use.
type Store struct {
	dir      string
	version  string
	maxBytes int64
	syncEach int
	openFile func(string) (File, error)
	log      io.Writer
	lock     *os.File // advisory cross-process lock on the directory

	mu      sync.Mutex
	f       File
	end     int64 // append offset == journal length
	index   map[string]entry
	useTick uint64
	dirty   int // record appends since the last fsync
	closed  bool
	stats   Stats
}

// Open opens (or creates) the store in opts.Dir, running the recovery
// scan. It never fails on journal corruption — corrupt content is
// quarantined or truncated and counted — only on I/O errors that keep
// the store from operating at all (unreadable directory, unopenable
// journal), or when another process already owns the directory (the
// advisory lock is held).
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("resultstore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		lock:     lock,
		dir:      opts.Dir,
		version:  fmt.Sprintf("%s+schema%d", opts.Version, SchemaVersion),
		maxBytes: opts.MaxBytes,
		syncEach: opts.SyncEvery,
		openFile: opts.OpenFile,
		log:      opts.Log,
		index:    map[string]entry{},
	}
	if s.syncEach <= 0 {
		s.syncEach = defaultSyncEvery
	}
	if s.openFile == nil {
		s.openFile = OpenOSFile
	}
	if err := s.openAndRecover(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, "resultstore: "+format+"\n", args...)
	}
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// newHeader renders the 16-byte journal header.
func newHeader() []byte {
	h := make([]byte, headerLen)
	copy(h, headerMagic[:])
	binary.LittleEndian.PutUint32(h[4:], SchemaVersion)
	return h
}

// writeHeader initializes an empty journal: header written and fsynced
// before any record can follow it.
func (s *Store) writeHeader() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("resultstore: init journal: %w", err)
	}
	if _, err := s.f.WriteAt(newHeader(), 0); err != nil {
		return fmt.Errorf("resultstore: write header: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: sync header: %w", err)
	}
	s.end = headerLen
	return nil
}

// openAndRecover opens the journal and rebuilds the index from it,
// truncating torn tails and quarantining mid-journal corruption.
func (s *Store) openAndRecover() error {
	f, err := s.openFile(s.journalPath())
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	s.f = f
	size, err := f.Size()
	if err != nil {
		f.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	if size == 0 {
		return s.writeHeader()
	}

	// Read the whole journal once; the scan needs random access for
	// resynchronization and the file is bounded by MaxBytes in any
	// long-running deployment.
	buf := make([]byte, size)
	if n, rerr := io.ReadFull(io.NewSectionReader(f, 0, size), buf); rerr != nil {
		if n == 0 {
			f.Close()
			return fmt.Errorf("resultstore: read journal: %w", rerr)
		}
		// Short read: the tail is unreadable (bad sectors, truncated FS
		// metadata). Salvage the readable prefix — the scan below treats
		// the cut like a torn tail — rather than refusing to open.
		s.logf("recovery: journal readable only to byte %d of %d (%v); salvaging the readable prefix", n, size, rerr)
		buf = buf[:n]
		size = int64(n)
	}

	if size < headerLen {
		// A crash tore the very first write: nothing but a partial
		// header exists, so there is nothing to lose by starting over.
		s.stats.TruncatedBytes += size
		s.logf("recovery: truncated %d-byte torn header", size)
		return s.writeHeader()
	}
	if magicOK, schema := [4]byte(buf[:4]) == headerMagic, binary.LittleEndian.Uint32(buf[4:8]); !magicOK || schema != SchemaVersion {
		// The header is not ours. Two very different situations look
		// like this: a journal written under another schema version,
		// whose record framing we must not parse (it is archived intact,
		// never interpreted), and our own journal with a damaged magic,
		// which must not void every good record behind it. Repair in
		// place only when the schema field still matches ours — the one
		// case where the records are known to use our framing — and our
		// record magic follows; anything else is archived wholesale.
		if !magicOK && schema == SchemaVersion &&
			size >= headerLen+recHdrLen && [4]byte(buf[headerLen:headerLen+4]) == recordMagic {
			if _, err := s.f.WriteAt(newHeader(), 0); err != nil {
				s.f.Close()
				return fmt.Errorf("resultstore: repair header: %w", err)
			}
			if err := s.f.Sync(); err != nil {
				s.f.Close()
				return fmt.Errorf("resultstore: sync repaired header: %w", err)
			}
			s.logf("recovery: journal header magic damaged; repaired in place")
		} else {
			return s.archiveJournal(size)
		}
	}

	off := int64(headerLen)
	truncateAt := int64(-1)
	for off < size {
		rest := size - off
		if rest < recHdrLen {
			truncateAt = off // torn tail: a partial record header
			break
		}
		if [4]byte(buf[off:off+4]) != recordMagic {
			next, skipped := s.resync(buf, off)
			s.quarantine(off, skipped, "bad record magic")
			if next < 0 {
				truncateAt = off
				break
			}
			off = next
			continue
		}
		n := int64(binary.LittleEndian.Uint32(buf[off+4 : off+8]))
		crc := binary.LittleEndian.Uint32(buf[off+8 : off+12])
		if n > maxRecordLen {
			next, skipped := s.resync(buf, off)
			s.quarantine(off, skipped, fmt.Sprintf("implausible record length %d", n))
			if next < 0 {
				truncateAt = off
				break
			}
			off = next
			continue
		}
		end := off + recHdrLen + n
		if end > size {
			// The payload runs past EOF. Usually that is a torn tail,
			// but a corrupted length field looks exactly the same — so
			// only truncate if no later record magic exists; otherwise
			// this is mid-journal damage and the records after it live.
			next, skipped := s.resync(buf, off)
			if next < 0 {
				truncateAt = off // torn tail: payload runs past EOF
				break
			}
			s.quarantine(off, skipped, fmt.Sprintf("record length %d runs past EOF", n))
			off = next
			continue
		}
		body := buf[off+recHdrLen : end]
		if crc32.Checksum(body, castagnoli) != crc {
			if end == size {
				truncateAt = off // torn tail: final record half-written
				break
			}
			s.quarantine(off, buf[off:end], "checksum mismatch")
			off = end
			continue
		}
		var p payload
		if err := json.Unmarshal(body, &p); err != nil || p.Key == "" {
			s.quarantine(off, buf[off:end], "undecodable payload")
			off = end
			continue
		}
		// Later records win: an append-only journal lists newer results
		// after older ones, and a duplicate's earlier bytes become dead
		// space the next compaction drops.
		s.useTick++
		s.index[p.Key] = entry{off: off, size: end - off, lastUse: s.useTick}
		s.stats.Recovered++
		off = end
	}

	s.end = size
	if truncateAt >= 0 {
		dropped := size - truncateAt
		if err := s.f.Truncate(truncateAt); err != nil {
			s.f.Close()
			return fmt.Errorf("resultstore: truncate torn tail: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			s.f.Close()
			return fmt.Errorf("resultstore: sync after truncate: %w", err)
		}
		s.end = truncateAt
		s.stats.TruncatedBytes += dropped
		s.logf("recovery: truncated %d torn-tail bytes at offset %d", dropped, truncateAt)
	}
	if s.stats.Recovered > 0 || s.stats.Corrupt > 0 {
		s.logf("recovery: %d records restored, %d corrupt quarantined", s.stats.Recovered, s.stats.Corrupt)
	}
	return nil
}

// archiveJournal moves an unrecognized journal aside and starts fresh.
func (s *Store) archiveJournal(size int64) error {
	s.f.Close()
	bad := s.journalPath() + ".bad"
	if err := os.Rename(s.journalPath(), bad); err != nil {
		return fmt.Errorf("resultstore: archive foreign journal: %w", err)
	}
	syncDir(s.dir)
	s.stats.Corrupt++
	s.logf("recovery: journal header unrecognized (%d bytes); archived to %s and starting fresh", size, bad)
	f, err := s.openFile(s.journalPath())
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	s.f = f
	return s.writeHeader()
}

// resync finds the next record magic after a corrupt region starting at
// off. It returns the next plausible record offset and the skipped
// bytes, or -1 when no further magic exists (the corruption reaches the
// tail).
func (s *Store) resync(buf []byte, off int64) (int64, []byte) {
	for i := off + 1; i+recHdrLen <= int64(len(buf)); i++ {
		if [4]byte(buf[i:i+4]) == recordMagic {
			return i, buf[off:i]
		}
	}
	return -1, nil
}

// quarantineEntry is one line of quarantine.jsonl: where the corrupt
// bytes sat, why they were rejected, and the bytes themselves (base64,
// capped) so no record is ever silently destroyed.
type quarantineEntry struct {
	Offset    int64  `json:"offset"`
	Length    int    `json:"length"`
	Reason    string `json:"reason"`
	RecordB64 string `json:"record_b64,omitempty"`
}

// quarantine appends a corrupt region to quarantine.jsonl and counts
// it. Quarantine I/O failures are logged, never fatal: losing the
// post-mortem copy must not take the store down.
func (s *Store) quarantine(off int64, data []byte, reason string) {
	s.stats.Corrupt++
	e := quarantineEntry{Offset: off, Length: len(data), Reason: reason}
	const b64Cap = 1 << 20
	if len(data) > 0 {
		capped := data
		if len(capped) > b64Cap {
			capped = capped[:b64Cap]
		}
		e.RecordB64 = base64.StdEncoding.EncodeToString(capped)
	}
	s.logf("quarantine: %s at offset %d (%d bytes)", reason, off, len(data))
	qf, err := os.OpenFile(filepath.Join(s.dir, quarantineName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.logf("quarantine: cannot open %s: %v", quarantineName, err)
		return
	}
	defer qf.Close()
	if err := json.NewEncoder(qf).Encode(e); err != nil {
		s.logf("quarantine: cannot write %s: %v", quarantineName, err)
	}
}

// Get answers one lookup for a workload run at the given dataset scale.
// The record's checksum and identity (key, workload, scale, version)
// are re-verified on every read; any failure quarantines the record and
// answers a miss, so corruption discovered after open degrades to
// re-simulation, never to bad data.
func (s *Store) Get(cfg core.Config, workload, scale string) (*core.Report, bool) {
	key := cfg.Hash(workload, scale, s.version)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Misses++
		return nil, false
	}
	e, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	buf := make([]byte, e.size)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		s.logf("read: record at offset %d unreadable: %v", e.off, err)
		s.quarantine(e.off, nil, fmt.Sprintf("unreadable: %v", err))
		delete(s.index, key)
		s.stats.Misses++
		return nil, false
	}
	p, reason := decodeRecord(buf)
	if reason == "" && (p.Key != key || p.Workload != workload || p.Scale != scale || p.Version != s.version) {
		reason = "identity mismatch"
	}
	if reason != "" {
		s.quarantine(e.off, buf, reason)
		delete(s.index, key)
		s.stats.Misses++
		return nil, false
	}
	s.useTick++
	e.lastUse = s.useTick
	s.index[key] = e
	s.stats.Hits++
	return p.Report, true
}

// decodeRecord validates one complete record's framing, checksum and
// payload. It returns the decoded payload or a rejection reason.
func decodeRecord(buf []byte) (payload, string) {
	var p payload
	if len(buf) < recHdrLen || [4]byte(buf[:4]) != recordMagic {
		return p, "bad record magic"
	}
	n := int64(binary.LittleEndian.Uint32(buf[4:8]))
	if n != int64(len(buf))-recHdrLen {
		return p, "length mismatch"
	}
	if crc32.Checksum(buf[recHdrLen:], castagnoli) != binary.LittleEndian.Uint32(buf[8:12]) {
		return p, "checksum mismatch"
	}
	if err := json.Unmarshal(buf[recHdrLen:], &p); err != nil {
		return p, "undecodable payload"
	}
	return p, ""
}

// encodeRecord frames one payload as journal bytes.
func encodeRecord(body []byte) []byte {
	rec := make([]byte, recHdrLen+len(body))
	copy(rec, recordMagic[:])
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(body, castagnoli))
	copy(rec[recHdrLen:], body)
	return rec
}

// Put appends one verified result for a workload run at the given
// dataset scale. A failed or short append rolls the journal back to its
// previous length and returns the error; the store stays usable for
// reads and later puts either way.
func (s *Store) Put(cfg core.Config, workload, scale string, rep *core.Report) error {
	key := cfg.Hash(workload, scale, s.version)
	body, err := json.Marshal(payload{
		Key: key, Version: s.version, Scale: scale, Workload: workload,
		Config: cfg.Normalize(), Report: rep,
	})
	if err != nil {
		return fmt.Errorf("resultstore: encode record: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("resultstore: store is closed")
	}
	if len(body) > maxRecordLen {
		// The recovery scan rejects any length field above maxRecordLen
		// as corruption by construction, so appending a larger record
		// would serve from memory now and quarantine at the next open —
		// a record the store itself wrote, silently lost across
		// restarts. Refuse it up front instead.
		s.stats.PutErrors++
		return fmt.Errorf("resultstore: record payload is %d bytes, above the %d-byte journal limit", len(body), maxRecordLen)
	}
	rec := encodeRecord(body)
	n, werr := s.f.WriteAt(rec, s.end)
	if werr == nil && n < len(rec) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		s.stats.PutErrors++
		// Roll back so the partial bytes can never sit mid-journal under
		// a later successful append; if truncate also fails the garbage
		// stays past s.end, where the next recovery scan drops it as a
		// torn tail.
		if terr := s.f.Truncate(s.end); terr == nil {
			s.stats.TruncatedBytes += int64(n)
		}
		return fmt.Errorf("resultstore: append record: %w", werr)
	}
	off := s.end
	s.end += int64(len(rec))
	s.useTick++
	s.index[key] = entry{off: off, size: int64(len(rec)), lastUse: s.useTick}
	s.stats.Puts++
	s.dirty++
	if s.dirty >= s.syncEach {
		if serr := s.f.Sync(); serr != nil {
			return fmt.Errorf("resultstore: sync journal: %w", serr)
		}
		s.dirty = 0
	}
	if s.maxBytes > 0 && s.end > s.maxBytes {
		if cerr := s.compactLocked(); cerr != nil {
			s.logf("compaction failed (store continues on the old journal): %v", cerr)
		}
	}
	return nil
}

// compactLocked rewrites the journal with only the records that fit
// MaxBytes, keeping the most recently used. The new journal is written
// to a temp file, fsynced, and renamed over the old one; a crash at any
// point leaves one intact journal. Caller holds mu.
func (s *Store) compactLocked() error {
	type keyed struct {
		key string
		e   entry
	}
	live := make([]keyed, 0, len(s.index))
	for k, e := range s.index {
		live = append(live, keyed{k, e})
	}
	// Most recently used first for the size cut...
	sort.Slice(live, func(i, j int) bool { return live[i].e.lastUse > live[j].e.lastUse })
	var kept []keyed
	total := int64(headerLen)
	for _, kv := range live {
		if s.maxBytes > 0 && total+kv.e.size > s.maxBytes && len(kept) > 0 {
			break
		}
		kept = append(kept, kv)
		total += kv.e.size
	}
	evicted := uint64(len(live) - len(kept))
	// ...then journal order for the rewrite, preserving append history.
	sort.Slice(kept, func(i, j int) bool { return kept[i].e.off < kept[j].e.off })

	tmpPath := s.journalPath() + ".tmp"
	tf, err := s.openFile(tmpPath)
	if err != nil {
		return err
	}
	cleanup := func() {
		tf.Close()
		os.Remove(tmpPath)
	}
	if err := tf.Truncate(0); err != nil {
		cleanup()
		return err
	}
	if _, err := tf.WriteAt(newHeader(), 0); err != nil {
		cleanup()
		return err
	}
	newIndex := make(map[string]entry, len(kept))
	off := int64(headerLen)
	for _, kv := range kept {
		rec := make([]byte, kv.e.size)
		if _, err := s.f.ReadAt(rec, kv.e.off); err != nil {
			cleanup()
			return err
		}
		if _, reason := decodeRecord(rec); reason != "" {
			// A record that rotted since it was indexed does not survive
			// compaction; quarantine it rather than carrying rot forward.
			s.quarantine(kv.e.off, rec, "corrupt during compaction: "+reason)
			evicted++
			continue
		}
		if _, err := tf.WriteAt(rec, off); err != nil {
			cleanup()
			return err
		}
		newIndex[kv.key] = entry{off: off, size: kv.e.size, lastUse: kv.e.lastUse}
		off += kv.e.size
	}
	if err := tf.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// Swap. Close-old → rename → fsync dir → reopen; any failure after
	// the rename reopens whichever file now owns the journal name.
	s.f.Close()
	if err := os.Rename(tmpPath, s.journalPath()); err != nil {
		os.Remove(tmpPath)
		f, rerr := s.openFile(s.journalPath())
		if rerr != nil {
			s.closed = true
			return fmt.Errorf("rename failed (%v) and journal reopen failed: %w", err, rerr)
		}
		s.f = f
		return err
	}
	syncDir(s.dir)
	f, err := s.openFile(s.journalPath())
	if err != nil {
		s.closed = true
		return fmt.Errorf("reopen compacted journal: %w", err)
	}
	s.f = f
	s.end = off
	s.index = newIndex
	s.dirty = 0
	s.stats.Evictions += evicted
	s.stats.Compactions++
	s.logf("compacted: %d records kept (%d bytes), %d evicted", len(newIndex), off, evicted)
	return nil
}

// Flush fsyncs any batched record appends.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.dirty == 0 {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: sync journal: %w", err)
	}
	s.dirty = 0
	return nil
}

// Close flushes and closes the journal and releases the directory
// lock, so another process can open the store. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.dirty > 0 {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	unlockDir(s.lock)
	s.lock = nil
	if err != nil {
		return fmt.Errorf("resultstore: close: %w", err)
	}
	return nil
}

// Stats returns the counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.Bytes = s.end
	return st
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// syncDir fsyncs a directory so a rename inside it is durable; best
// effort on platforms where directories cannot be synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
