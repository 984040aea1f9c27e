package par

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalOpen opens arbitrary bytes as a journal. A refused file
// must be left byte-identical. An accepted one may only lose a tail
// (the truncated or unparsable records after the last intact line),
// unless it held no journal yet — empty, or a header cut short at
// creation — in which case it becomes exactly the header. Either way a
// Record followed by a reopen must round-trip every key. The committed
// seeds under testdata/fuzz cover each of those cases.
func FuzzJournalOpen(f *testing.F) {
	const fp = "fp-fuzz"
	header := []byte(`{"fingerprint":"fp-fuzz"}` + "\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, fp)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("refused open (%v) changed the file from %q to %q", err, data, got)
			}
			return
		}
		if bytes.HasPrefix(header, data) {
			if !bytes.Equal(got, header) {
				t.Fatalf("open of header prefix %q left %q, want the header", data, got)
			}
		} else if !bytes.HasPrefix(data, got) {
			t.Fatalf("open rewrote %q as %q, want a prefix", data, got)
		}

		want := make(map[string]json.RawMessage, len(j.done)+1)
		for k, v := range j.done {
			want[k] = v
		}
		const key = "fuzz|key"
		if err := j.Record(key, 42); err != nil {
			t.Fatal(err)
		}
		if _, ok := want[key]; !ok {
			want[key] = json.RawMessage("42")
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, fp)
		if err != nil {
			t.Fatalf("reopen after Record: %v", err)
		}
		defer j2.Close()
		if len(j2.done) != len(want) {
			t.Fatalf("reopen holds %d keys, want %d", len(j2.done), len(want))
		}
		for k, v := range want {
			if g, ok := j2.done[k]; !ok || !bytes.Equal(g, v) {
				t.Fatalf("key %q reopened as %q (present %v), want %q", k, g, ok, v)
			}
		}
	})
}
