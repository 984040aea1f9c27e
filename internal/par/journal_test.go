package par

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type cellResult struct {
	IPC   float64 `json:"ipc"`
	Count uint64  `json:"count"`
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	want := cellResult{IPC: 1.0 / 3.0, Count: 42} // non-terminating float: exactness matters
	if err := j.Record("cell-a", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done() != 1 {
		t.Fatalf("done %d, want 1", j2.Done())
	}
	var got cellResult
	if !j2.Lookup("cell-a", &got) {
		t.Fatal("cell-a not found")
	}
	if got != want {
		t.Fatalf("round trip %+v != %+v (float must be bit-exact)", got, want)
	}
	if j2.Lookup("cell-b", &got) {
		t.Fatal("phantom cell")
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, "fp-v2"); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("want fingerprint mismatch, got %v", err)
	}
}

func TestJournalNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "random.txt")
	if err := os.WriteFile(path, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "fp-v1"); err == nil {
		t.Fatal("want error for non-journal file")
	}
}

// TestJournalForeignFileNoNewline: a foreign file with no complete
// first line is refused and left byte-identical, exactly like one with
// a newline. Only a prefix of the header itself — creation killed
// mid-write — is completed into a fresh journal.
func TestJournalForeignFileNoNewline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	orig := []byte(`{"important":"data"}`)
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "fp-v1"); err == nil || !strings.Contains(err.Error(), "not a sweep journal") {
		t.Fatalf("want not-a-journal error, got %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(orig) {
		t.Fatalf("foreign file now holds %q (err %v), want it untouched: %q", got, err, orig)
	}

	path = filepath.Join(dir, "sweep.jsonl")
	if err := os.WriteFile(path, []byte(`{"fingerprint":"fp-v`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatalf("header cut short at creation: %v", err)
	}
	j.Close()
	if got, _ := os.ReadFile(path); string(got) != "{\"fingerprint\":\"fp-v1\"}\n" {
		t.Fatalf("journal after completing a cut header: %q", got)
	}
}

func TestJournalPartialTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	j.Record("cell-a", cellResult{IPC: 1, Count: 1})
	j.Record("cell-b", cellResult{IPC: 2, Count: 2})
	j.Close()

	// Simulate a crash mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"cell-c","result":{"ip`)
	f.Close()

	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Done() != 2 {
		t.Fatalf("done %d, want 2 (partial tail dropped)", j2.Done())
	}
	// The truncated tail must be gone so new records append cleanly.
	if err := j2.Record("cell-c", cellResult{IPC: 3, Count: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	var got cellResult
	if j3.Done() != 3 || !j3.Lookup("cell-c", &got) || got.Count != 3 {
		t.Fatalf("healed journal: done=%d got=%+v", j3.Done(), got)
	}
}

// TestJournalGarbageTailTruncated covers the other crash shape: the
// final line is newline-terminated but unparsable (a torn write that
// happened to include the newline, or disk corruption). The journal
// must drop the garbage line and everything after it, keep the intact
// prefix bit-identical, and accept fresh appends cleanly.
func TestJournalGarbageTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	want := cellResult{IPC: 2.0 / 7.0, Count: 9}
	j.Record("cell-a", want)
	j.Record("cell-b", cellResult{IPC: 1, Count: 1})
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json at all\n")
	f.WriteString(`{"key":"cell-after-garbage","result":{"ipc":3,"count":3}}` + "\n")
	f.Close()

	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	// Everything from the first bad line on is untrusted and cut — the
	// record after the garbage line goes too.
	if j2.Done() != 2 {
		t.Fatalf("done %d, want 2 (garbage tail dropped)", j2.Done())
	}
	var got cellResult
	if !j2.Lookup("cell-a", &got) || got != want {
		t.Fatalf("intact prefix corrupted: got %+v want %+v", got, want)
	}
	// The file must have been rewritten to the valid prefix so appends
	// after recovery parse cleanly on the next open.
	if err := j2.Record("cell-c", cellResult{IPC: 4, Count: 4}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Done() != 3 || !j3.Lookup("cell-a", &got) || got != want {
		t.Fatalf("resume after recovery not bit-identical: done=%d got=%+v", j3.Done(), got)
	}
}

// TestJournalKeys pins the restart-recovery contract: Keys returns
// every recorded key, sorted, regardless of insertion order.
func TestJournalKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"zeta", "alpha", "mid"} {
		j.Record(k, cellResult{})
	}
	want := []string{"alpha", "mid", "zeta"}
	got := j.Keys()
	if len(got) != len(want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys %v, want %v", got, want)
		}
	}
	j.Close()
	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got = j2.Keys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys after reopen %v, want %v", got, want)
		}
	}
}

func TestJournalRecordAfterCloseDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A timed-out straggler finishing late must not crash or write.
	if err := j.Record("late", cellResult{}); err != nil {
		t.Fatalf("record after close: %v", err)
	}
	j2, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done() != 0 {
		t.Fatal("late record must be dropped")
	}
}

func TestJournalDuplicateKeyKeepsFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Record("cell-a", cellResult{Count: 1})
	j.Record("cell-a", cellResult{Count: 2})
	var got cellResult
	if !j.Lookup("cell-a", &got) || got.Count != 1 {
		t.Fatalf("got %+v, want first record", got)
	}
}

// failingFile wraps a journalFile, failing writes or syncs on command —
// the disk-full / dying-disk analog for the append path.
type failingFile struct {
	inner     journalFile
	failWrite bool
	failSync  bool
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.failWrite {
		return 0, errors.New("no space left on device")
	}
	return f.inner.Write(p)
}

func (f *failingFile) Sync() error {
	if f.failSync {
		return errors.New("input/output error")
	}
	return f.inner.Sync()
}

func (f *failingFile) Close() error { return f.inner.Close() }

// TestJournalAppendFailureTyped: a failed write or fsync surfaces as a
// *JournalError naming the file and operation, and the cell is NOT
// marked done in memory — the checkpoint never claims more than the
// disk durably holds. Clearing the fault lets the same key record
// normally.
func TestJournalAppendFailureTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "fp-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ff := &failingFile{inner: j.f}
	j.f = ff

	for _, tc := range []struct {
		name   string
		arm    func()
		wantOp string
	}{
		{"write", func() { ff.failWrite = true; ff.failSync = false }, "append"},
		{"fsync", func() { ff.failWrite = false; ff.failSync = true }, "fsync"},
	} {
		tc.arm()
		err := j.Record("cell-"+tc.name, cellResult{IPC: 1, Count: 2})
		var je *JournalError
		if !errors.As(err, &je) {
			t.Fatalf("%s failure: got %v, want *JournalError", tc.name, err)
		}
		if je.Op != tc.wantOp || je.Path != path || je.Unwrap() == nil {
			t.Fatalf("%s failure: JournalError = %+v, want op %q on %s", tc.name, je, tc.wantOp, path)
		}
		var got cellResult
		if j.Lookup("cell-"+tc.name, &got) {
			t.Fatalf("%s failure: failed append still marked the cell done", tc.name)
		}
	}

	// Fault cleared: the key records and reads back.
	ff.failWrite, ff.failSync = false, false
	if err := j.Record("cell-write", cellResult{IPC: 1, Count: 2}); err != nil {
		t.Fatalf("record after clearing fault: %v", err)
	}
	var got cellResult
	if !j.Lookup("cell-write", &got) || got.Count != 2 {
		t.Fatalf("got %+v, want the recovered record", got)
	}
}
