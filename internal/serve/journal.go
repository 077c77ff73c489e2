package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dsp/internal/trace"
)

// The submission journal is the daemon's ingestion write-ahead log: one
// JSON line per accepted submission or cancellation, appended and
// fsynced before the client sees its 202. Engine snapshots deliberately
// exclude undrained submissions; they record only how many journal
// entries had been drained into the world (EngineState.IngestApplied).
// Resume therefore rebuilds the pre-snapshot world from the first
// IngestApplied entries and replays the rest through
// SubmitStamped/CancelStamped — the journal, not the snapshot, is the
// source of truth for what was accepted.
//
// The file lives beside the recover package's snapshot/WAL generations
// in the checkpoint directory but is managed here: recover's
// generation pruning never touches it, and a fresh (non-resume) start
// truncates it along with NewManager clearing old checkpoint files.

// journalFile is the fixed name inside the checkpoint directory.
const journalFile = "submissions.jsonl"

// journalEntry is one accepted ingestion operation.
type journalEntry struct {
	// Op is "submit" or "cancel".
	Op string `json:"op"`
	// StampUS is the virtual arrival stamp the engine assigned.
	StampUS int64 `json:"stamp_us"`
	// ID is the cancellation target (submit entries carry the ID inside
	// Job).
	ID int `json:"id,omitempty"`
	// Job is the stamped submission body for submit entries — exactly
	// what trace.EncodeJob produced after Submit rewrote the arrival, so
	// replaying it reproduces the original world byte-identically.
	Job json.RawMessage `json:"job,omitempty"`
}

// journal is an append-only, fsync-on-append entry log.
type journal struct {
	f *os.File
}

func journalPath(dir string) string { return filepath.Join(dir, journalFile) }

// createJournal starts a fresh journal, truncating any previous one —
// the non-resume counterpart of recover.NewManager clearing snapshots.
func createJournal(dir string) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: create journal: %w", err)
	}
	return &journal{f: f}, nil
}

// openJournal opens an existing journal for appending (resume), first
// truncating it to validLen, the valid prefix readJournal reported: a
// torn tail left in place would glue itself onto the next entry and
// corrupt it. A missing file is fine — the daemon was killed before the
// first accepted submission.
func openJournal(dir string, validLen int64) (*journal, error) {
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: truncate journal: %w", err)
	}
	return &journal{f: f}, nil
}

// append writes one entry and forces it to stable storage. An error
// here must latch the daemon fatal: acknowledging a submission that is
// not durable would let a crash silently drop an accepted job.
func (j *journal) append(e journalEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("serve: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	return nil
}

func (j *journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// readJournal loads every complete entry from dir's journal, in append
// order, and the byte length of the valid prefix they span (what
// openJournal truncates to before appending). A torn final line — the
// process was killed mid-append, before the fsync that would have
// acknowledged it — is dropped, whether it lacks its newline or does not
// decode; any earlier malformed line is corruption and an error. A
// missing file yields an empty log.
func readJournal(dir string) (entries []journalEntry, validLen int64, err error) {
	b, err := os.ReadFile(journalPath(dir))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: read journal: %w", err)
	}
	for len(b) > int(validLen) {
		rest := b[validLen:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // unterminated: a torn final line
		}
		if line := rest[:nl]; len(line) > 0 {
			var e journalEntry
			if json.Unmarshal(line, &e) != nil {
				if int(validLen)+nl+1 < len(b) {
					return nil, 0, fmt.Errorf("serve: journal corrupt: undecodable entry %d is not the final line", len(entries))
				}
				break // a torn final line
			}
			entries = append(entries, e)
		}
		validLen += int64(nl) + 1
	}
	return entries, validLen, nil
}

// decodeSubmission rebuilds the trace.Job of a submit entry.
func decodeSubmission(e journalEntry) (*trace.Job, error) {
	tj, err := trace.DecodeJob(e.Job)
	if err != nil {
		return nil, fmt.Errorf("serve: journal job: %w", err)
	}
	return tj, nil
}
