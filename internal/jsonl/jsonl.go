// Package jsonl is the one crash-safe JSON-lines store behind the
// workload trace (internal/serve), the observation store
// (internal/observe) and the plan checkpoints (internal/plan): a
// damage-tolerant replay, a line encoder, an atomic whole-file rewrite
// and an append handle whose first write error poisons it.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// maxLine is the longest line replay accepts (the read buffer). The
// entries of all three users are a few hundred bytes; a longer line is
// damage.
const maxLine = 64 * 1024

// tmpSuffix names the temporary file Replace writes beside its target.
const tmpSuffix = ".compact.tmp"

// syncFile makes a file's data durable; tests swap it to watch and to fail
// the sync.
var syncFile = (*os.File).Sync

// Scan replays JSONL data from r, handing each decoded line to keep, and
// returns how many lines were skipped: lines that do not decode into T,
// lines keep rejects (well-formed JSON that is not a valid record), lines
// longer than 64 KiB, and — counted once — a read error that cuts the
// stream short. Blank lines are framing, not damage. Damage anywhere
// (a torn append, binary corruption mid-file) never voids the valid lines
// before or after it.
func Scan[T any](r io.Reader, keep func(T) bool) (skipped int) {
	br := bufio.NewReaderSize(r, maxLine)
	for {
		line, isPrefix, err := br.ReadLine()
		if err != nil {
			// io.EOF is the clean end; any other read error truncates the
			// replay at the damage, counted once.
			if err != io.EOF {
				skipped++
			}
			return skipped
		}
		if isPrefix {
			// Drain the rest of the overlong line, count one skip, and
			// resume at the next line.
			skipped++
			for isPrefix && err == nil {
				_, isPrefix, err = br.ReadLine()
			}
			if err != nil {
				return skipped
			}
			continue
		}
		if len(line) == 0 {
			continue
		}
		var v T
		if json.Unmarshal(line, &v) != nil || !keep(v) {
			skipped++
		}
	}
}

// Encode writes v to w as one JSON line.
func Encode(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// Replace atomically replaces the file at path with one line per item:
// the lines go to a temporary file that is flushed, synced and closed
// before it is renamed over path, so a crash or power loss leaves the old
// file or the new one — never a torn or empty one. On any error the
// temporary file is removed and path is untouched.
func Replace[T any](path string, items []T) (err error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jsonl: replace %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a successful one is harmless
			os.Remove(tmp)
			err = fmt.Errorf("jsonl: replace %s: %w", path, err)
		}
	}()
	bw := bufio.NewWriter(f)
	for _, it := range items {
		if err = Encode(bw, it); err != nil {
			return err
		}
	}
	if err = bw.Flush(); err == nil {
		err = syncFile(f) // before the rename: the new name must never reach disk ahead of the data
	}
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	return err
}

// Log is an append handle on a JSONL file. Append buffers; a caller that
// needs the line to survive a kill follows it with Flush. The first write
// error poisons the log: every later Append, Flush and Close returns it
// and nothing more is written. Not safe for concurrent use — each user
// already serializes its appends with the state they update.
type Log struct {
	f   *os.File
	bw  *bufio.Writer
	err error
}

// Open opens (creating if absent) the file at path for appending. A
// temporary file left by a Replace that crashed before its rename is
// discarded: the rename never happened, so path is the authoritative copy.
// A tail the last writer did not finish with a newline is cut off, so the
// first append starts a line of its own and is not glued to the torn one
// and lost with it at the next replay.
func Open(path string) (*Log, error) {
	os.Remove(path + tmpSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jsonl: open: %w", err)
	}
	if err := dropTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("jsonl: open %s: %w", path, err)
	}
	return &Log{f: f, bw: bufio.NewWriter(f)}, nil
}

// dropTornTail truncates f to the end of its last newline-terminated line
// and syncs the cut. An unterminated tail is what a crash mid-append
// leaves; even one that parses cannot be trusted to be the whole record.
func dropTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	end := size // no newline at or after end
	buf := make([]byte, 4096)
	for end > 0 {
		n := min(int64(len(buf)), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = end - n + int64(i) + 1
			break
		}
		end -= n
	}
	if end == size {
		return nil
	}
	if err := f.Truncate(end); err != nil {
		return err
	}
	return syncFile(f)
}

// Append buffers v as one line.
func (l *Log) Append(v any) error {
	if l.err == nil {
		l.err = Encode(l.bw, v)
	}
	return l.err
}

// Flush writes the buffered lines through to the file.
func (l *Log) Flush() error {
	if l.err == nil {
		l.err = l.bw.Flush()
	}
	return l.err
}

// Close flushes and closes the file, returning the log's first error.
func (l *Log) Close() error {
	err := l.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
