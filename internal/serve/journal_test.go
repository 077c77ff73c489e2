package serve

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// appendAll writes entries through a journal handle and closes it.
func appendAll(t *testing.T, j *journal, entries ...journalEntry) {
	t.Helper()
	for _, e := range entries {
		if err := j.append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func submitEntry(stamp int64) journalEntry {
	return journalEntry{Op: "submit", StampUS: stamp, Job: json.RawMessage(`{"id":1}`)}
}

// TestJournalResumeAfterTornTail: a kill mid-append leaves a torn final
// line; resuming must cut it off before appending, so entries
// acknowledged after the resume read back intact — and a second resume
// still works.
func TestJournalResumeAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, submitEntry(1), submitEntry(2))
	f, err := os.OpenFile(journalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","stamp_us":3,"jo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, validLen, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("torn journal read %d entries, want 2", len(got))
	}
	j, err = openJournal(dir, validLen)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, submitEntry(4), journalEntry{Op: "cancel", StampUS: 5, ID: 1})

	got, validLen, err = readJournal(dir)
	if err != nil {
		t.Fatalf("journal after resume+append: %v", err)
	}
	want := []journalEntry{submitEntry(1), submitEntry(2), submitEntry(4), {Op: "cancel", StampUS: 5, ID: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after resume = %+v, want %+v", got, want)
	}
	if fi, err := os.Stat(journalPath(dir)); err != nil || fi.Size() != validLen {
		t.Fatalf("valid prefix %d does not cover the whole clean file (%v, %v)", validLen, fi, err)
	}

	// Resume again: nothing to cut, one more entry.
	j, err = openJournal(dir, validLen)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, submitEntry(6))
	if got, _, err = readJournal(dir); err != nil || len(got) != 5 {
		t.Fatalf("second resume read %d entries, err %v; want 5", len(got), err)
	}
}

func TestReadJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	body := `{"op":"submit","stamp_us":1}` + "\nnot json\n" + `{"op":"submit","stamp_us":2}` + "\n"
	if err := os.WriteFile(journalPath(dir), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readJournal(dir); err == nil {
		t.Fatal("undecodable line followed by a valid one must be corruption")
	}
}

// FuzzReadJournal feeds arbitrary bytes to the journal reader: it either
// errors or returns a prefix, and truncating to that prefix and
// appending one entry reads back the same entries plus the new one.
func FuzzReadJournal(f *testing.F) {
	var seed []byte
	for _, e := range []journalEntry{submitEntry(1), {Op: "cancel", StampUS: 2, ID: 1}} {
		b, _ := json.Marshal(e)
		seed = append(append(seed, b...), '\n')
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-7])
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	f.Add([]byte("garbage\n{}\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), b, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, validLen, err := readJournal(dir)
		if err != nil {
			return
		}
		if validLen < 0 || validLen > int64(len(b)) {
			t.Fatalf("validLen %d outside file [0, %d]", validLen, len(b))
		}
		j, err := openJournal(dir, validLen)
		if err != nil {
			t.Fatal(err)
		}
		next := submitEntry(99)
		appendAll(t, j, next)
		again, _, err := readJournal(dir)
		if err != nil {
			t.Fatalf("journal unreadable after truncate+append: %v", err)
		}
		if len(again) != len(entries)+1 {
			t.Fatalf("read %d entries after append, want %d", len(again), len(entries)+1)
		}
		if len(entries) > 0 && !reflect.DeepEqual(again[:len(entries)], entries) {
			t.Fatal("truncate+append changed the existing entries")
		}
		if !reflect.DeepEqual(again[len(entries)], next) {
			t.Fatalf("appended entry read back as %+v, want %+v", again[len(entries)], next)
		}
	})
}
