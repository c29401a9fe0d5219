// Package promtext is the one writer of the Prometheus text exposition
// format (0.0.4) behind /metrics: the serving, observation and cluster
// layers declare their families as data and render them here.
package promtext

import (
	"fmt"
	"io"
	"strconv"
)

// Desc is one metric family's metadata.
type Desc struct{ Name, Help, Type string }

// Family is a labelled family with one sample per item of a slice.
type Family[T any] struct {
	Desc
	Value func(T) float64
}

// CounterOf is a labelled counter family.
func CounterOf[T any](name, help string, value func(T) float64) Family[T] {
	return Family[T]{Desc{name, help, "counter"}, value}
}

// GaugeOf is a labelled gauge family.
func GaugeOf[T any](name, help string, value func(T) float64) Family[T] {
	return Family[T]{Desc{name, help, "gauge"}, value}
}

// Bool is the 0/1 value of a flag.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Label renders one name="value" label pair — the one quoting rule for
// every label value; join several pairs with commas.
func Label(name, value string) string { return name + "=" + strconv.Quote(value) }

// Writer renders families to an io.Writer. The first write error sticks:
// later calls write nothing and Err returns it.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error.
func (p *Writer) Err() error { return p.err }

func (p *Writer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// header writes a family's metadata lines.
func (p *Writer) header(d Desc) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", d.Name, d.Help, d.Name, d.Type)
}

// Counter writes an unlabelled cumulative-since-process-start family:
// metadata, then its one sample.
func (p *Writer) Counter(name, help string, v float64) { p.scalar(Desc{name, help, "counter"}, v) }

// Gauge writes an unlabelled instantaneous family.
func (p *Writer) Gauge(name, help string, v float64) { p.scalar(Desc{name, help, "gauge"}, v) }

func (p *Writer) scalar(d Desc, v float64) {
	p.header(d)
	p.printf("%s %v\n", d.Name, v)
}

// Families writes each labelled family as one block: metadata, then one
// sample per item labelled by labels(item). No items, no blocks.
func Families[T any](p *Writer, items []T, labels func(T) string, families ...Family[T]) {
	if len(items) == 0 {
		return
	}
	rendered := make([]string, len(items)) // quoted once, reused by every family
	for i, it := range items {
		rendered[i] = labels(it)
	}
	for _, f := range families {
		p.header(f.Desc)
		for i, it := range items {
			p.printf("%s{%s} %v\n", f.Name, rendered[i], f.Value(it))
		}
	}
}
