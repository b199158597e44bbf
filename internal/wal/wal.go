// Package wal is a durable, CRC-32-framed, versioned append-only log —
// the persistence layer under the replicated aggregation tier
// (internal/core's leader/follower replication). The leader appends one
// opaque record per training step before acking the step to the
// platform; followers append the same records as they stream in. After
// a crash, Open recovers the log, truncates a torn tail write, and
// Iterate replays the surviving suffix in order.
//
// # Layout
//
// A log is a directory of segment files. Sealed segments are named
// wal-<base>.seg and never change; the single active segment is named
// wal-<base>.open, where <base> is the 16-hex-digit index of the
// segment's first record. Each segment starts with a header:
//
//	magic "MWAL" | version u8 | base index u64 (little-endian)
//
// followed by records framed as:
//
//	length u32 | crc32(payload) u32 | payload
//
// Record indices are assigned densely starting at 1, so a record's
// index is the segment base plus its ordinal in the segment; the log
// never stores indices explicitly.
//
// # Durability
//
// Options.SyncEvery is the fsync policy knob: 1 fsyncs after every
// append — a record handed back from Append survives a crash, which is
// what lets the leader ack a training step; n > 1 amortizes the fsync
// over n appends (bounded loss window); 0, the zero value and so what
// Options{} gets, never fsyncs and leaves syncing to the OS (benchmarks
// and tests). A leader that must not lose an acked step passes
// SyncEvery: 1 explicitly. Sealing a finished segment
// goes through the shared fsync-then-rename helper
// (internal/atomicfile), so a sealed name never points at unsynced
// bytes.
//
// # Recovery
//
// Open scans every segment and validates every CRC. A record that runs
// past the end of the final segment, or whose checksum fails with
// nothing valid after it, is a torn tail write — the crash interrupted
// the append — and is truncated silently; the log resumes right before
// it. A checksum failure anywhere else (a "bit-flipped CRC mid-log")
// is real corruption and fails Open with ErrCorrupt: replaying past it
// would silently diverge the replica.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"medsplit/internal/atomicfile"
)

// Sentinel errors.
var (
	// ErrCorrupt reports unrecoverable log damage: a checksum or framing
	// failure that is not a torn tail write.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCompacted reports an Iterate starting below the first retained
	// index.
	ErrCompacted = errors.New("wal: index compacted away")
)

var segmentMagic = [4]byte{'M', 'W', 'A', 'L'}

const (
	segmentVersion = 1
	headerSize     = 4 + 1 + 8 // magic + version + base index
	frameSize      = 4 + 4     // length + crc
	// maxRecord caps a record frame, stopping a corrupt length prefix
	// from allocating unbounded memory (mirrors wire.maxPayload).
	maxRecord = 1 << 28
	// maxCoalesce bounds the buffer Append joins a frame and its payload
	// in, so one write syscall carries the record. Larger records, such
	// as base snapshots, go out as two writes instead of pinning their
	// size in the buffer for the log's lifetime.
	maxCoalesce = 256 << 10
)

// Options configures a Log.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this many
	// bytes. Defaults to 4 MiB.
	SegmentBytes int
	// SyncEvery is the fsync policy: 1 syncs every append, n > 1 every
	// n appends, 0 — the zero value, so the default — never
	// (OS-buffered; tests/benchmarks). A durable leader must pass
	// SyncEvery: 1. Negative is invalid.
	SyncEvery int
}

func (o *Options) withDefaults() error {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < headerSize+frameSize {
		return fmt.Errorf("wal: segment size %d too small", o.SegmentBytes)
	}
	if o.SyncEvery < 0 {
		return fmt.Errorf("wal: negative SyncEvery %d", o.SyncEvery)
	}
	return nil
}

// segment is one on-disk segment's bookkeeping.
type segment struct {
	path  string
	base  uint64 // index of the segment's first record
	count int    // records in the segment
}

func (s *segment) last() uint64 { return s.base + uint64(s.count) - 1 }

// Log is an append-only record log over segment files. Safe for use by
// one writer goroutine; all methods are serialized internally so
// concurrent readers (Iterate from a different goroutine) are safe too.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	sealed []segment // ascending by base
	active segment   // the wal-<base>.open segment
	f      *os.File  // active segment handle, positioned at the end

	next        uint64 // index the next Append assigns
	first       uint64 // first retained index (moves up on compaction)
	sinceSync   int    // appends since the last fsync
	activeBytes int    // current size of the active segment
	closed      bool

	buf []byte // Append's frame-plus-payload scratch, at most maxCoalesce
}

// Open opens (or creates) the log in dir, recovering from a crash:
// segment chains are validated, every record's CRC is checked, and a
// torn tail write is truncated. The directory is created if missing.
func Open(dir string, opts Options) (*Log, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		l.first, l.next = 1, 1
		if err := l.openActive(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Validate every segment: full CRC pass, dense index chain. Only the
	// final segment may carry (and lose) a torn tail.
	for i := range segs {
		final := i == len(segs)-1
		count, size, err := validateSegment(&segs[i], final)
		if err != nil {
			return nil, err
		}
		segs[i].count = count
		if i > 0 && segs[i].base != segs[i-1].base+uint64(segs[i-1].count) {
			return nil, fmt.Errorf("%w: segment %s base %d, want %d",
				ErrCorrupt, filepath.Base(segs[i].path), segs[i].base, segs[i-1].base+uint64(segs[i-1].count))
		}
		if final {
			l.activeBytes = size
		}
	}
	l.first = segs[0].base
	tail := segs[len(segs)-1]
	l.next = tail.base + uint64(tail.count)
	// The tail segment becomes the active one. A sealed tail (clean
	// shutdown after a roll, or a crash before the new .open was
	// created) stays sealed; appends start a fresh segment.
	if strings.HasSuffix(tail.path, ".open") {
		l.sealed = segs[:len(segs)-1]
		l.active = tail
		f, err := os.OpenFile(tail.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening active segment: %w", err)
		}
		if _, err := f.Seek(int64(l.activeBytes), io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seeking active segment: %w", err)
		}
		l.f = f
	} else {
		l.sealed = segs
		if err := l.openActive(l.next); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// scanDir lists the directory's segments in ascending base order,
// rejecting layouts Open cannot reason about (several .open files, an
// .open below a sealed segment).
func scanDir(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segment
	opens := 0
	for _, e := range ents {
		name := e.Name()
		var baseHex string
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			baseHex = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".open"):
			baseHex = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".open")
			opens++
		default:
			continue
		}
		base, perr := strconv.ParseUint(baseHex, 16, 64)
		if perr != nil || base == 0 {
			return nil, fmt.Errorf("%w: segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), base: base})
	}
	if opens > 1 {
		return nil, fmt.Errorf("%w: %d active segments", ErrCorrupt, opens)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	if opens == 1 && len(segs) > 0 && !strings.HasSuffix(segs[len(segs)-1].path, ".open") {
		return nil, fmt.Errorf("%w: active segment is not the newest", ErrCorrupt)
	}
	return segs, nil
}

// validateSegment checks a segment's header and every record frame,
// returning the record count and the validated byte size. When final
// is set, a torn tail (a record running past EOF, or a CRC-failed
// record with nothing after it) is truncated off the file instead of
// failing.
func validateSegment(s *segment, final bool) (count, size int, err error) {
	buf, err := os.ReadFile(s.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	name := filepath.Base(s.path)
	if len(buf) == 0 && final {
		// Crash between creating the file and writing its header: an
		// empty segment. Rewrite the header so appends can proceed.
		if err := os.WriteFile(s.path, segmentHeader(s.base), 0o644); err != nil {
			return 0, 0, fmt.Errorf("wal: repairing empty segment: %w", err)
		}
		return 0, headerSize, nil
	}
	if len(buf) < headerSize {
		return 0, 0, fmt.Errorf("%w: segment %s shorter than its header", ErrCorrupt, name)
	}
	if [4]byte{buf[0], buf[1], buf[2], buf[3]} != segmentMagic {
		return 0, 0, fmt.Errorf("%w: segment %s bad magic", ErrCorrupt, name)
	}
	if buf[4] != segmentVersion {
		return 0, 0, fmt.Errorf("%w: segment %s version %d, want %d", ErrCorrupt, name, buf[4], segmentVersion)
	}
	if got := binary.LittleEndian.Uint64(buf[5:]); got != s.base {
		return 0, 0, fmt.Errorf("%w: segment %s header base %d, name says %d", ErrCorrupt, name, got, s.base)
	}
	off := headerSize
	for off < len(buf) {
		// Torn frame or torn payload: the write that crashed. Only legal
		// at the very tail of the final segment.
		if len(buf)-off < frameSize {
			if final {
				return count, off, truncate(s.path, off)
			}
			return 0, 0, fmt.Errorf("%w: segment %s truncated frame at %d", ErrCorrupt, name, off)
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n > maxRecord {
			return 0, 0, fmt.Errorf("%w: segment %s record length %d at %d", ErrCorrupt, name, n, off)
		}
		if off+frameSize+n > len(buf) {
			if final {
				return count, off, truncate(s.path, off)
			}
			return 0, 0, fmt.Errorf("%w: segment %s torn record at %d", ErrCorrupt, name, off)
		}
		wantCRC := binary.LittleEndian.Uint32(buf[off+4:])
		payload := buf[off+frameSize : off+frameSize+n]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			// A full-length record with a bad sum at the exact tail of the
			// final segment is still a torn write (the frame landed, the
			// payload didn't all make it before the crash). Anywhere else
			// it is corruption.
			if final && off+frameSize+n == len(buf) {
				return count, off, truncate(s.path, off)
			}
			return 0, 0, fmt.Errorf("%w: segment %s checksum mismatch at %d", ErrCorrupt, name, off)
		}
		off += frameSize + n
		count++
	}
	return count, off, nil
}

func truncate(path string, size int) error {
	if err := os.Truncate(path, int64(size)); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return nil
}

func segmentHeader(base uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, segmentMagic[:])
	hdr[4] = segmentVersion
	binary.LittleEndian.PutUint64(hdr[5:], base)
	return hdr
}

func segmentName(base uint64, open bool) string {
	ext := ".seg"
	if open {
		ext = ".open"
	}
	return fmt.Sprintf("wal-%016x%s", base, ext)
}

// openActive creates a fresh active segment starting at base.
func (l *Log) openActive(base uint64) error {
	path := filepath.Join(l.dir, segmentName(base, true))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(segmentHeader(base)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if l.opts.SyncEvery > 0 {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
	}
	l.f = f
	l.active = segment{path: path, base: base}
	l.activeBytes = headerSize
	return nil
}

// Append durably adds one record and returns its index (the first
// record of a log is index 1). With SyncEvery=1 the record is on
// stable storage when Append returns.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record %d bytes exceeds limit", len(payload))
	}
	if l.activeBytes >= l.opts.SegmentBytes && l.active.count > 0 {
		if err := l.roll(); err != nil {
			return 0, err
		}
	}
	if err := l.write(payload); err != nil {
		return 0, err
	}
	l.activeBytes += frameSize + len(payload)
	l.active.count++
	idx := l.next
	l.next++
	l.sinceSync++
	if l.opts.SyncEvery > 0 && l.sinceSync >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// write appends payload's frame and the payload to the active segment:
// one write from the log's buffer when the record fits in maxCoalesce,
// two (frame, then payload) otherwise.
func (l *Log) write(payload []byte) error {
	n := frameSize + len(payload)
	if n > maxCoalesce {
		var frame [frameSize]byte
		putFrame(frame[:], payload)
		if _, err := l.f.Write(frame[:]); err != nil {
			return fmt.Errorf("wal: appending frame: %w", err)
		}
		if _, err := l.f.Write(payload); err != nil {
			return fmt.Errorf("wal: appending payload: %w", err)
		}
		return nil
	}
	if cap(l.buf) < n {
		l.buf = make([]byte, 0, min(max(n, 2*cap(l.buf)), maxCoalesce))
	}
	rec := l.buf[:frameSize]
	putFrame(rec, payload)
	if _, err := l.f.Write(append(rec, payload...)); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	return nil
}

// putFrame writes payload's frame (length, then CRC) into dst.
func putFrame(dst, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[4:], crc32.ChecksumIEEE(payload))
}

// roll seals the active segment under its final name and starts a new
// one. The seal goes through the shared fsync-then-rename helper so the
// sealed name is durable before the next segment exists.
func (l *Log) roll() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment before seal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment before seal: %w", err)
	}
	sealedPath := filepath.Join(l.dir, segmentName(l.active.base, false))
	if err := atomicfile.Rename(l.active.path, sealedPath); err != nil {
		return err
	}
	l.sinceSync = 0
	sealed := l.active
	sealed.path = sealedPath
	l.sealed = append(l.sealed, sealed)
	return l.openActive(l.next)
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.sinceSync = 0
	return nil
}

// FirstIndex returns the lowest index Iterate accepts: 1 before any
// compaction, moving up as sealed segments are dropped. For an empty
// log it equals NextIndex.
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// LastIndex returns the newest record's index, or first-1 when the
// retained log is empty.
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// NextIndex returns the index the next Append will assign.
func (l *Log) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Iterate replays records with index >= from in order. The payload
// slice passed to fn is only valid during the call. Iterating from
// below FirstIndex returns ErrCompacted; fn errors abort the walk.
func (l *Log) Iterate(from uint64, fn func(index uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if from < l.first {
		l.mu.Unlock()
		return fmt.Errorf("%w: iterate from %d, first retained %d", ErrCompacted, from, l.first)
	}
	// Walk a stable snapshot of the segment list outside the lock.
	// Writes are unbuffered, so a read-back through the page cache sees
	// every appended record, and records below the snapshotted counts
	// are immutable even while appends extend the active file.
	segs := make([]segment, 0, len(l.sealed)+1)
	segs = append(segs, l.sealed...)
	if l.active.count > 0 {
		segs = append(segs, l.active)
	}
	l.mu.Unlock()

	for _, s := range segs {
		if s.last() < from {
			continue
		}
		if err := iterateSegment(s, from, fn); err != nil {
			return err
		}
	}
	return nil
}

// iterateSegment replays one validated segment's records >= from.
func iterateSegment(s segment, from uint64, fn func(uint64, []byte) error) error {
	buf, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	off := headerSize
	idx := s.base
	for i := 0; i < s.count; i++ {
		if len(buf)-off < frameSize {
			return fmt.Errorf("%w: segment %s shrank underfoot", ErrCorrupt, filepath.Base(s.path))
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		wantCRC := binary.LittleEndian.Uint32(buf[off+4:])
		if n > maxRecord || off+frameSize+n > len(buf) {
			return fmt.Errorf("%w: segment %s bad record at %d", ErrCorrupt, filepath.Base(s.path), off)
		}
		payload := buf[off+frameSize : off+frameSize+n]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return fmt.Errorf("%w: segment %s checksum mismatch at %d", ErrCorrupt, filepath.Base(s.path), off)
		}
		if idx >= from {
			if err := fn(idx, payload); err != nil {
				return err
			}
		}
		off += frameSize + n
		idx++
	}
	return nil
}

// CompactBefore drops whole sealed segments whose records all precede
// index. The active segment is never dropped, so compaction is
// segment-granular: FirstIndex after the call is <= index. Called at
// checkpoint boundaries — once a snapshot at round r is durable, the
// records that rebuilt state up to r are dead weight.
func (l *Log) CompactBefore(index uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var kept []segment
	for _, s := range l.sealed {
		if s.last() < index {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: removing compacted segment: %w", err)
			}
			l.first = s.last() + 1
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	return nil
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.opts.SyncEvery > 0 {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: final sync: %w", err)
		}
	}
	return l.f.Close()
}
