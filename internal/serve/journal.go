package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// crcTable is the CRC32C (Castagnoli) polynomial table used to checksum
// journal lines; Castagnoli has hardware support on amd64/arm64 and better
// error-detection properties than IEEE for short records.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal record types. A job's durable lifecycle is submit ->
// done|fail|cancel. A job whose submit has no terminal record is re-run on
// the next startup: the process died, or a graceful shutdown drained it,
// before it could finish, and either way the client is owed a result.
// cancel is a deliberate client- or deadline-initiated abort and stays
// dead. Journals written by older servers also carry start records (and
// "interrupt" ones); replay reads them as no record at all.
const (
	recSubmit = "submit"
	recDone   = "done"
	recFail   = "fail"
	recCancel = "cancel"
	// recStart is no longer written: older servers journaled one per
	// solved job. Replay ignores it.
	recStart = "start"
	// recBatch groups already-journaled jobs into a batch: the record's ID
	// is the batch ID and its Doc holds the membership (item -> job ID or
	// inline rejection). Item lifecycles live in the member jobs' own
	// records, so a crashed batch resumes exactly its unfinished items.
	recBatch = "batch"
)

// jrec is one JSONL line in the journal. Submit records carry the full
// request so a replay can re-run the job; done records carry the result
// document inline. A done record without a document is a cache hit (or a
// solve journaled by an older server, whose document lives under
// results/<key>.json): replay finds its bytes in an earlier doc-bearing
// record of the same key.
type jrec struct {
	T   string          `json:"t"`
	ID  string          `json:"id"`
	Key string          `json:"key,omitempty"`
	Req json.RawMessage `json:"req,omitempty"`
	Err string          `json:"err,omitempty"`
	Doc json.RawMessage `json:"doc,omitempty"`
}

// docDegraded reports whether a journaled result document is degraded (or
// unreadable), so replay must keep it out of the content-addressed cache.
func docDegraded(doc []byte) bool {
	var d struct {
		Degraded bool `json:"degraded"`
	}
	return json.Unmarshal(doc, &d) != nil || d.Degraded
}

// journal is the append-only JSONL write-ahead log under one data dir:
//
//	<dir>/journal.jsonl      lifecycle records and finished result documents
//	<dir>/results/<key>.json result documents of older servers, read only
//
// Writing and durability are separate steps with a group commit between
// them: write appends lines at once and returns the position they end at;
// sync blocks until an fsync covers that position. The first waiter that
// is not yet covered runs one fsync for everything written so far, and
// waiters that arrive while it runs share the next one. Callers sync only
// where the server makes a promise (a 202, a batch answer, a finished job),
// so a record the server acted on survives kill -9, and records written
// together are made durable together.
//
// Each line is written as "%08x <json>" — a CRC32C checksum over the JSON
// bytes, then the record. The reader distinguishes two failure shapes: a
// bad FINAL line is a torn tail (the one partial write a crash can leave)
// and is dropped silently; a bad MID-FILE line is bit rot or tampering —
// the record is quarantined (skipped and counted) while every verifiable
// record around it is restored. A line without a checksum prefix fails
// verification like any other damaged line.
type journal struct {
	dir string

	mu sync.Mutex
	f  *os.File
	// written is the position (bytes appended through this journal) the
	// last write ended at; synced is the position an fsync has covered.
	written, synced int64
	// round is the fsync in progress, nil when none runs.
	round *syncRound

	// fsyncs counts fsyncs of the journal (group commits and compactions).
	fsyncs atomic.Int64
	// beforeSync, when set, runs in the leader just before each group
	// fsync. Tests use it to hold an fsync open; nil otherwise.
	beforeSync func()
}

// syncRound is one group fsync: it covers every position up to target, and
// done closes once it returns err.
type syncRound struct {
	target int64
	done   chan struct{}
	err    error
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }
func resultsDir(dir string) string  { return filepath.Join(dir, "results") }

// openJournal creates dir as needed, reads
// whatever journal survives there, and returns the parsed records alongside
// a journal opened for appending, plus the count of quarantined mid-file
// corrupt records.
func openJournal(dir string) (*journal, []jrec, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	recs, corrupt, err := readJournal(journalPath(dir))
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	return &journal{dir: dir, f: f}, recs, corrupt, nil
}

// encodeLine renders a record as its checksummed journal line, newline
// included.
func encodeLine(r *jrec) ([]byte, error) {
	js, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(js)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(js, crcTable))
	line = append(line, js...)
	line = append(line, '\n')
	return line, nil
}

// parseJournalLine verifies and decodes one "%08x <json>" journal line.
func parseJournalLine(line []byte) (jrec, bool) {
	var r jrec
	if len(line) < 10 || line[8] != ' ' {
		return r, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return r, false
	}
	js := line[9:]
	if crc32.Checksum(js, crcTable) != sum {
		return r, false
	}
	if err := json.Unmarshal(js, &r); err != nil || r.T == "" || r.ID == "" {
		return jrec{}, false
	}
	return r, true
}

// readJournal parses a checksummed JSONL journal. A malformed final line is
// a torn tail from a crash mid-append and is dropped silently; a malformed
// line with verifiable records after it is corruption — it is quarantined
// (skipped) and counted, and parsing continues. A missing file is an empty
// journal.
func readJournal(path string) ([]jrec, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 32<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	var recs []jrec
	var corrupt int64
	for i, line := range lines {
		r, ok := parseJournalLine(line)
		if !ok {
			if i == len(lines)-1 {
				break // torn tail: the crash-truncated final append
			}
			corrupt++
			continue
		}
		recs = append(recs, r)
	}
	return recs, corrupt, nil
}

// write appends the records as checksummed lines in one write and returns
// the position they end at and their size. The lines are not durable until
// a sync covers that position.
func (j *journal) write(recs ...jrec) (pos int64, n int, err error) {
	var buf []byte
	for i := range recs {
		line, err := encodeLine(&recs[i])
		if err != nil {
			return 0, 0, err
		}
		buf = append(buf, line...)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf); err != nil {
		return 0, 0, err
	}
	j.written += int64(len(buf))
	return j.written, len(buf), nil
}

// sync blocks until an fsync covers pos. led reports whether this call ran
// the fsync that covered it. An fsync error reaches every waiter the fsync
// covered; a later sync retries.
func (j *journal) sync(pos int64) (led bool, err error) {
	j.mu.Lock()
	for {
		if j.synced >= pos {
			j.mu.Unlock()
			return false, nil
		}
		r := j.round
		if r == nil {
			break
		}
		j.mu.Unlock()
		<-r.done
		if r.target >= pos {
			return false, r.err
		}
		// That fsync started before pos was written: the next one covers it.
		j.mu.Lock()
	}
	r := &syncRound{target: j.written, done: make(chan struct{})}
	j.round = r
	f := j.f
	j.mu.Unlock()

	if j.beforeSync != nil {
		j.beforeSync()
	}
	r.err = f.Sync()
	j.fsyncs.Add(1)

	j.mu.Lock()
	if r.err == nil && r.target > j.synced {
		j.synced = r.target
	}
	j.round = nil
	j.mu.Unlock()
	close(r.done)
	return true, r.err
}

// compact atomically replaces the journal with just the given records —
// called at startup after replay folds history down to retained jobs, so
// the log does not grow without bound across restarts. The append handle is
// reopened on the new file.
func (j *journal) compact(recs []jrec) error {
	tmp := journalPath(j.dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range recs {
		line, err := encodeLine(&recs[i])
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	err = f.Sync()
	j.fsyncs.Add(1)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, journalPath(j.dir)); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	nf, err := os.OpenFile(journalPath(j.dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = nf
	j.synced = j.written // the compacted file is durable, and nothing follows it yet
	return nil
}

// close makes every written record durable and releases the append
// handle. A job that graceful shutdown interrupts journals nothing terminal,
// so this fsync is what keeps its submit for the next start.
func (j *journal) close() error {
	j.mu.Lock()
	pos := j.written
	j.mu.Unlock()
	_, err := j.sync(pos)
	j.mu.Lock()
	defer j.mu.Unlock()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadResult reads a result document an older server stored under
// results/<key>.json; ok is false when there is none (the job must then be
// re-run). Current servers journal every document inline.
func (j *journal) loadResult(key string) ([]byte, bool) {
	doc, err := os.ReadFile(filepath.Join(resultsDir(j.dir), key+".json"))
	if err != nil || len(doc) == 0 {
		return nil, false
	}
	return doc, true
}
