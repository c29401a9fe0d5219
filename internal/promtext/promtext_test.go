package promtext

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestLabelQuoting: the exposition format escapes exactly backslash,
// double quote and line feed inside a label value.
func TestLabelQuoting(t *testing.T) {
	for _, c := range []struct{ value, want string }{
		{`plain`, `k="plain"`},
		{`say "hi"`, `k="say \"hi\""`},
		{`C:\path`, `k="C:\\path"`},
		{"two\nlines", `k="two\nlines"`},
		{``, `k=""`},
	} {
		if got := Label("k", c.value); got != c.want {
			t.Errorf("Label(k, %q) = %s, want %s", c.value, got, c.want)
		}
	}
}

type shard struct {
	id   string
	hits float64
	full bool
}

func shardLabels(s shard) string { return Label("shard", s.id) }

var shardFamilies = []Family[shard]{
	CounterOf("x_hits_total", "Hits.", func(s shard) float64 { return s.hits }),
	GaugeOf("x_full", "Full.", func(s shard) float64 { return Bool(s.full) }),
}

func TestFamiliesWithoutItemsWriteNothing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	Families(w, nil, shardLabels, shardFamilies...)
	if buf.Len() != 0 || w.Err() != nil {
		t.Fatalf("no items wrote %q (err %v), want nothing", buf.String(), w.Err())
	}
}

// TestOneHeaderPerFamily: a family is one block — its HELP/TYPE pair once,
// then a sample per item — however many items there are, and scalars and
// labelled families share the format.
func TestOneHeaderPerFamily(t *testing.T) {
	for _, n := range []int{1, 3} {
		items := []shard{{"0", 5, false}, {"1", 7, true}, {`"2"`, 0.5, false}}[:n]
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Counter("x_requests_total", "Requests.", 12)
		Families(w, items, shardLabels, shardFamilies...)
		w.Gauge("x_up", "Up.", 1)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		out := buf.String()
		for _, name := range []string{"x_requests_total", "x_hits_total", "x_full", "x_up"} {
			if got := strings.Count(out, "# HELP "+name+" "); got != 1 {
				t.Errorf("%d items: %d HELP lines for %s, want 1", n, got, name)
			}
			if got := strings.Count(out, "# TYPE "+name+" "); got != 1 {
				t.Errorf("%d items: %d TYPE lines for %s, want 1", n, got, name)
			}
		}
		if got := strings.Count(out, "x_hits_total{"); got != n {
			t.Errorf("%d items: %d x_hits_total samples", n, got)
		}
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Counter("x_requests_total", "Requests.", 12)
	Families(w, []shard{{"0", 5, false}, {`"1"`, 7, true}}, shardLabels, shardFamilies...)
	const want = `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total 12
# HELP x_hits_total Hits.
# TYPE x_hits_total counter
x_hits_total{shard="0"} 5
x_hits_total{shard="\"1\""} 7
# HELP x_full Full.
# TYPE x_full gauge
x_full{shard="0"} 0
x_full{shard="\"1\""} 1
`
	if buf.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", buf.String(), want)
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n      int
	writes int
	buf    bytes.Buffer
}

var errDisk = errors.New("disk full")

func (f *failAfter) Write(b []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errDisk
	}
	return f.buf.Write(b)
}

// TestFirstWriteErrorSticks: after the first failed write the Writer
// attempts no further writes and keeps reporting that error.
func TestFirstWriteErrorSticks(t *testing.T) {
	dst := &failAfter{n: 2}
	w := NewWriter(dst)
	w.Counter("a_total", "A.", 1) // header and sample: the two writes that succeed
	before := dst.buf.String()
	w.Gauge("b", "B.", 2) // its header is the write that fails
	if !errors.Is(w.Err(), errDisk) {
		t.Fatalf("Err = %v, want the write error", w.Err())
	}
	attempts := dst.writes
	w.Counter("c_total", "C.", 3)
	Families(w, []shard{{"0", 1, true}}, shardLabels, shardFamilies...)
	if dst.writes != attempts {
		t.Errorf("%d writes attempted after the error", dst.writes-attempts)
	}
	if dst.buf.String() != before {
		t.Errorf("output grew after the error: %q", dst.buf.String())
	}
	if !errors.Is(w.Err(), errDisk) {
		t.Errorf("Err changed to %v", w.Err())
	}
}
