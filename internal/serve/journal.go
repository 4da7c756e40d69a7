package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// crcTable is the CRC32C (Castagnoli) polynomial table used to checksum
// journal lines; Castagnoli has hardware support on amd64/arm64 and better
// error-detection properties than IEEE for short records.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal record types. A job's durable lifecycle is submit -> start ->
// done|fail|cancel|interrupt. Records whose job never reached done, fail or
// cancel are replayed (re-run) on the next startup: submit/start mean the
// process died mid-job, and interrupt means a graceful shutdown drained the
// job before it could finish — both owe the client a result. cancel is a
// deliberate client- or deadline-initiated abort and stays dead.
const (
	recSubmit    = "submit"
	recStart     = "start"
	recDone      = "done"
	recFail      = "fail"
	recCancel    = "cancel"
	recInterrupt = "interrupt"
	// recBatch groups already-journaled jobs into a batch: the record's ID
	// is the batch ID and its Doc holds the membership (item -> job ID or
	// inline rejection). Item lifecycles live in the member jobs' own
	// records, so a crashed batch resumes exactly its unfinished items.
	recBatch = "batch"
)

// jrec is one JSONL line in the journal. Submit records carry the full
// request so a replay can re-run the job; done records for degraded results
// carry the document inline (degraded results are timing-dependent and are
// deliberately kept out of the content-addressed results directory — see
// runJob), while normal done records point at results/<key>.json via Key.
type jrec struct {
	T   string          `json:"t"`
	ID  string          `json:"id"`
	Key string          `json:"key,omitempty"`
	Req json.RawMessage `json:"req,omitempty"`
	Err string          `json:"err,omitempty"`
	Doc json.RawMessage `json:"doc,omitempty"`
}

// journal is the append-only JSONL write-ahead log plus the
// content-addressed results directory under one data dir:
//
//	<dir>/journal.jsonl      lifecycle records, appended and fsynced per job event
//	<dir>/results/<key>.json finished result documents, written tmp+rename
//
// Every append is flushed and fsynced before it returns: a record the
// server acted on (a 202 answered, a result served) survives kill -9.
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
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }
func resultsDir(dir string) string  { return filepath.Join(dir, "results") }

// openJournal creates dir (and its results subdirectory) as needed, reads
// whatever journal survives there, and returns the parsed records alongside
// a journal opened for appending, plus the count of quarantined mid-file
// corrupt records.
func openJournal(dir string) (*journal, []jrec, int64, error) {
	if err := os.MkdirAll(resultsDir(dir), 0o755); err != nil {
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

// append writes one checksummed record, flushed and fsynced before
// returning.
func (j *journal) append(r jrec) error {
	line, err := encodeLine(&r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
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
	if err := f.Sync(); err != nil {
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
	return nil
}

// close releases the append handle.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

// writeResult durably stores a finished result document under its content
// address via tmp+rename, so a crash can never leave a half-written file at
// the final path.
func (j *journal) writeResult(key string, doc []byte) error {
	final := filepath.Join(resultsDir(j.dir), key+".json")
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// loadResult reads a stored result document back; ok is false when the key
// has no durable result (the job must then be re-run).
func (j *journal) loadResult(key string) ([]byte, bool) {
	doc, err := os.ReadFile(filepath.Join(resultsDir(j.dir), key+".json"))
	if err != nil || len(doc) == 0 {
		return nil, false
	}
	return doc, true
}
