package jsonl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// rec is the record type the suite logs: one required field, so a
// well-formed line can still be an invalid record.
type rec struct {
	N int `json:"n"`
}

func keepPositive(into *[]rec) func(rec) bool {
	return func(r rec) bool {
		if r.N <= 0 {
			return false
		}
		*into = append(*into, r)
		return true
	}
}

func lineOf(r rec) string { return fmt.Sprintf(`{"n":%d}`, r.N) + "\n" }

// The suite is a cross product of composable elements (SNIPPETS.md 2): a
// fault damages a log of valid records and says what the damage costs, a
// source decides how the damaged bytes reach Scan, and an operation is
// what a user does with the replay (nothing, heal the file, heal and
// append). Every user of the package — trace, observation store, plan
// checkpoint — gets this behaviour by calling it; their own tests only
// prove the wiring.

var valid = []rec{{1}, {2}, {3}, {4}}

// fault builds a damaged log from the valid records. lost lists the valid
// records the damage destroys; skipped is what Scan must count.
type fault struct {
	name    string
	damage  func() string
	lost    []int
	skipped int
}

func joined(between string) string {
	var b strings.Builder
	for i, r := range valid {
		if i == 2 {
			b.WriteString(between)
		}
		b.WriteString(lineOf(r))
	}
	return b.String()
}

var faults = []fault{
	{name: "undamaged", damage: func() string { return joined("") }},
	{name: "torn last line", damage: func() string {
		whole := joined("")
		return whole[:len(whole)-4] // the last record loses its tail and its newline
	}, lost: []int{3}, skipped: 1},
	{name: "last line without newline", damage: func() string {
		return strings.TrimSuffix(joined(""), "\n")
	}},
	{name: "binary garbage mid-file", damage: func() string {
		return joined("\x00\xff\xfe\x01 not json\n")
	}, skipped: 1},
	{name: "100 KiB line mid-file", damage: func() string {
		return joined(strings.Repeat("x", 100<<10) + "\n")
	}, skipped: 1},
	{name: "100 KiB of valid JSON mid-file", damage: func() string {
		return joined(`{"n":7,"pad":"` + strings.Repeat("x", 100<<10) + `"}` + "\n")
	}, skipped: 1},
	{name: "blank lines", damage: func() string { return "\n" + joined("\n\r\n\n") + "\n" }},
	{name: "well-formed but invalid record", damage: func() string { return joined(`{"n":-5}` + "\n") }, skipped: 1},
	{name: "JSON of the wrong shape", damage: func() string { return joined(`[1,2,3]` + "\n") }, skipped: 1},
	{name: "truncated JSON mid-file", damage: func() string { return joined(`{"n":` + "\n") }, skipped: 1},
	{name: "overlong torn tail", damage: func() string {
		return joined("") + strings.Repeat("y", 100<<10)
	}, skipped: 1},
	{name: "empty file", damage: func() string { return "" }, lost: []int{0, 1, 2, 3}},
}

func (f fault) survivors() []rec {
	var out []rec
	for i, r := range valid {
		lost := false
		for _, l := range f.lost {
			lost = lost || l == i
		}
		if !lost {
			out = append(out, r)
		}
	}
	return out
}

// source delivers the damaged bytes to Scan; extraSkips is what the
// delivery itself must add to the count.
type source struct {
	name       string
	reader     func(t *testing.T, data string) io.Reader
	extraSkips int
}

var sources = []source{
	{name: "memory", reader: func(_ *testing.T, data string) io.Reader { return strings.NewReader(data) }},
	{name: "file", reader: func(t *testing.T, data string) io.Reader {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}},
	{name: "short reads", reader: func(_ *testing.T, data string) io.Reader {
		return iotest.HalfReader(strings.NewReader(data))
	}},
	{name: "read error mid-stream", reader: func(_ *testing.T, data string) io.Reader {
		// The stream breaks where the data ends: what was read before the
		// error still counts, the error costs one skip.
		return io.MultiReader(strings.NewReader(data), iotest.ErrReader(errors.New("disk on fire")))
	}, extraSkips: 1},
}

func TestScanSurvivesDamage(t *testing.T) {
	for _, f := range faults {
		for _, src := range sources {
			f, src := f, src
			t.Run(f.name+"/"+src.name, func(t *testing.T) {
				var got []rec
				skipped := Scan(src.reader(t, f.damage()), keepPositive(&got))
				if want := f.survivors(); !reflect.DeepEqual(got, want) {
					t.Errorf("delivered %v, want %v", got, want)
				}
				if want := f.skipped + src.extraSkips; skipped != want {
					t.Errorf("skipped %d, want %d", skipped, want)
				}
			})
		}
	}
}

// operation is what a user does after replaying a damaged file. run
// returns the bytes the file must hold afterwards and the records a replay
// of it must deliver; heals says the operation leaves no damage behind.
type operation struct {
	name  string
	heals bool
	run   func(t *testing.T, path, damaged string, survivors []rec) (wantFile string, wantRecs []rec)
}

// heal rewrites the file down to the records that survived the replay.
func heal(t *testing.T, path, _ string, survivors []rec) (wantFile string, wantRecs []rec) {
	if err := Replace(path, survivors); err != nil {
		t.Fatal(err)
	}
	for _, r := range survivors {
		wantFile += lineOf(r)
	}
	return wantFile, survivors
}

// appendNine opens the file, appends record 9 and checks the flushed line
// is on disk before Close: a reader that never sees Close sees the line.
func appendNine(t *testing.T, path, wantFile string) {
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != wantFile {
		t.Errorf("file after Flush = %q, want %q", data, wantFile)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

var operations = []operation{
	{name: "heal", heals: true, run: heal},
	{name: "heal and append", heals: true, run: func(t *testing.T, path, damaged string, survivors []rec) (string, []rec) {
		wantFile, wantRecs := heal(t, path, damaged, survivors)
		wantFile += lineOf(rec{9})
		appendNine(t, path, wantFile)
		return wantFile, append(wantRecs, rec{9})
	}},
	// What a recorder that never compacts does after a crash: no healing
	// Replace, so Open itself must cut an unterminated tail — the append
	// would otherwise be glued to it and both lost at the next replay.
	// Damage before the last newline stays in the file and stays skipped.
	{name: "open and append", run: func(t *testing.T, path, damaged string, _ []rec) (string, []rec) {
		kept := damaged[:strings.LastIndexByte(damaged, '\n')+1]
		var wantRecs []rec
		for _, r := range valid {
			if strings.Contains(kept, lineOf(r)) {
				wantRecs = append(wantRecs, r)
			}
		}
		wantFile := kept + lineOf(rec{9})
		appendNine(t, path, wantFile)
		return wantFile, append(wantRecs, rec{9})
	}},
}

func TestDamagedFileHeals(t *testing.T) {
	for _, f := range faults {
		for _, op := range operations {
			f, op := f, op
			t.Run(f.name+"/"+op.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log.jsonl")
				if err := os.WriteFile(path, []byte(f.damage()), 0o644); err != nil {
					t.Fatal(err)
				}
				file, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				var survivors []rec
				Scan(file, keepPositive(&survivors))
				file.Close()

				want, wantRecs := op.run(t, path, f.damage(), survivors)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(data) != want {
					t.Errorf("file after %s = %q, want %q", op.name, data, want)
				}
				var again []rec
				skipped := Scan(bytes.NewReader(data), keepPositive(&again))
				if !reflect.DeepEqual(again, wantRecs) {
					t.Errorf("replay after %s delivers %v, want %v", op.name, again, wantRecs)
				}
				if op.heals && skipped != 0 {
					t.Errorf("healed file still skips %d lines", skipped)
				}
				assertNoTmp(t, path)
			})
		}
	}
}

func assertNoTmp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Errorf("temporary file left beside %s (stat err %v)", path, err)
	}
}

// TestReplaceFailureLeavesOldFile: whatever stops a Replace — an item that
// cannot be encoded after others were written, a failed sync, a temporary
// file that cannot be created — the old file stays byte-identical and no
// temporary file is left.
func TestReplaceFailureLeavesOldFile(t *testing.T) {
	const old = `{"n":1}` + "\n" + `{"n":2}` + "\n"
	cases := []struct {
		name    string
		arrange func(t *testing.T, path string)
		items   []any
		keepTmp bool // the obstacle itself sits at the temporary name
	}{
		{name: "unencodable item midway", items: []any{rec{5}, func() {}, rec{6}}},
		{name: "sync fails", items: []any{rec{5}, rec{6}}, arrange: func(t *testing.T, _ string) {
			syncFile = func(*os.File) error { return errors.New("sync: I/O error") }
			t.Cleanup(func() { syncFile = (*os.File).Sync })
		}},
		{name: "temporary file cannot be created", items: []any{rec{5}}, keepTmp: true, arrange: func(t *testing.T, path string) {
			if err := os.Mkdir(path+tmpSuffix, 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}
			if c.arrange != nil {
				c.arrange(t, path)
			}
			if err := Replace(path, c.items); err == nil {
				t.Fatal("Replace succeeded")
			}
			if data, _ := os.ReadFile(path); string(data) != old {
				t.Errorf("old file changed to %q", data)
			}
			if !c.keepTmp {
				assertNoTmp(t, path)
			}
		})
	}
}

// TestReplaceSyncsBeforeRename pins the durability order: when the sync
// runs, the temporary file already holds every line and the target still
// holds the old ones — so a power loss can never make the rename durable
// ahead of the data. The parent's two rewrite copies renamed unsynced.
func TestReplaceSyncsBeforeRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	const old = `{"n":1}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	syncs := 0
	syncFile = func(f *os.File) error {
		syncs++
		if tmp, _ := os.ReadFile(path + tmpSuffix); string(tmp) != lineOf(rec{5})+lineOf(rec{6}) {
			t.Errorf("at sync the temporary file holds %q, want both new lines", tmp)
		}
		if cur, _ := os.ReadFile(path); string(cur) != old {
			t.Errorf("at sync the target already reads %q", cur)
		}
		return f.Sync()
	}
	defer func() { syncFile = (*os.File).Sync }()
	if err := Replace(path, []rec{{5}, {6}}); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Errorf("Replace synced %d times, want 1", syncs)
	}
	if data, _ := os.ReadFile(path); string(data) != lineOf(rec{5})+lineOf(rec{6}) {
		t.Errorf("file after Replace = %q", data)
	}
	assertNoTmp(t, path)
}

func TestOpenDiscardsStaleTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	const main = `{"n":1}` + "\n"
	if err := os.WriteFile(path, []byte(main), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+tmpSuffix, []byte(`{"n":2}`+"\n"+`{"n`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	assertNoTmp(t, path)
	if data, _ := os.ReadFile(path); string(data) != main {
		t.Errorf("main file changed to %q", data)
	}
}

// TestOpenSyncsTheCut: cutting a torn tail is a write, made durable through
// the same seam as Replace before any append can follow it; a file that
// ends in a newline is not written at all, and a failed sync fails Open.
func TestOpenSyncsTheCut(t *testing.T) {
	const whole = `{"n":1}` + "\n"
	for _, c := range []struct {
		name, content string
		syncErr       error
		wantSyncs     int
	}{
		{name: "clean tail", content: whole},
		{name: "torn tail", content: whole + `{"n`, wantSyncs: 1},
		{name: "torn tail, sync fails", content: whole + `{"n`, syncErr: errors.New("sync: I/O error"), wantSyncs: 1},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			syncs := 0
			syncFile = func(*os.File) error {
				syncs++
				if data, _ := os.ReadFile(path); string(data) != whole {
					t.Errorf("at sync the file holds %q, want the tail already cut", data)
				}
				return c.syncErr
			}
			defer func() { syncFile = (*os.File).Sync }()
			l, err := Open(path)
			if (err != nil) != (c.syncErr != nil) {
				t.Fatalf("Open error = %v with sync error %v", err, c.syncErr)
			}
			if err == nil {
				l.Close()
			}
			if syncs != c.wantSyncs {
				t.Errorf("Open synced %d times, want %d", syncs, c.wantSyncs)
			}
		})
	}
}

func TestOpenUnderMissingDirectoryFails(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "no-such-dir", "log.jsonl")); err == nil {
		t.Fatal("Open succeeded under a directory that does not exist")
	}
	if err := Replace(filepath.Join(t.TempDir(), "no-such-dir", "log.jsonl"), []rec{{1}}); err == nil {
		t.Fatal("Replace succeeded under a directory that does not exist")
	}
}

// TestFirstWriteErrorPoisons: once a write fails the handle returns that
// same error from Append, Flush and Close, and writes nothing more.
func TestFirstWriteErrorPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the disk goes away under the handle
	if err := l.Append(rec{2}); err != nil {
		t.Fatalf("a buffered Append fails only at the flush, got %v", err)
	}
	first := l.Flush()
	if first == nil {
		t.Fatal("Flush to a closed file succeeded")
	}
	if err := l.Append(rec{3}); err != first {
		t.Errorf("Append after the failure = %v, want the first error %v", err, first)
	}
	if err := l.Flush(); err != first {
		t.Errorf("Flush after the failure = %v, want the first error %v", err, first)
	}
	if err := l.Close(); err != first {
		t.Errorf("Close after the failure = %v, want the first error %v", err, first)
	}
	if data, _ := os.ReadFile(path); string(data) != lineOf(rec{1}) {
		t.Errorf("file = %q, want only the line flushed before the failure", data)
	}

	// An unencodable value poisons the same way, before anything is written.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first = l2.Append(func() {})
	if first == nil {
		t.Fatal("Append of an unencodable value succeeded")
	}
	if err := l2.Append(rec{4}); err != first {
		t.Errorf("Append after the failure = %v, want %v", err, first)
	}
	if err := l2.Close(); err != first {
		t.Errorf("Close after the failure = %v, want %v", err, first)
	}
}

// FuzzScan: no input panics Scan, and when no line is overlong every
// non-empty line is either delivered or counted as skipped. The seed
// corpus is the damage table above, so plain `go test` replays it.
func FuzzScan(f *testing.F) {
	for _, ft := range faults {
		f.Add([]byte(ft.damage()))
	}
	f.Add([]byte("{\"n\":1}\r\n\r\n{\"n\":2}\r"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"n":1e999}` + "\n" + `{"n":"1"}` + "\n" + `null` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		delivered := 0
		skipped := Scan(bytes.NewReader(data), func(rec) bool { delivered++; return true })
		lines := bytes.Split(data, []byte("\n"))
		nonEmpty := 0
		for i, line := range lines {
			if len(line) >= maxLine-1 {
				return // overlong: only the no-panic half applies
			}
			if i < len(lines)-1 {
				line = bytes.TrimSuffix(line, []byte("\r")) // "\r\n" ends a line too
			}
			if len(line) > 0 {
				nonEmpty++
			}
		}
		if delivered+skipped != nonEmpty {
			t.Errorf("delivered %d + skipped %d != %d non-empty lines", delivered, skipped, nonEmpty)
		}
	})
}
