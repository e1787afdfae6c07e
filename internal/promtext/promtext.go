// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) of the daemon's and the router's /metrics pages.
package promtext

import (
	"fmt"
	"sort"
	"strings"
)

// ContentType is the Content-Type of a rendered page.
const ContentType = "text/plain; version=0.0.4"

// Codes counts events by a string key (an endpoint, a replica) and an
// HTTP status code. The caller serializes access.
type Codes map[string]map[int]int64

// Add counts one event.
func (c Codes) Add(key string, code int) {
	byCode := c[key]
	if byCode == nil {
		byCode = make(map[int]int64)
		c[key] = byCode
	}
	byCode[code]++
}

// Writer accumulates one exposition page.
type Writer struct {
	b strings.Builder
}

// String returns the page written so far.
func (w *Writer) String() string { return w.b.String() }

// Family writes a family's HELP and TYPE lines; typ is "counter" or
// "gauge".
func (w *Writer) Family(name, typ, help string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int writes one sample with a %d value. labels alternate label names
// and values; values are quoted with %q.
func (w *Writer) Int(name string, v int64, labels ...string) {
	w.series(name, labels)
	fmt.Fprintf(&w.b, " %d\n", v)
}

// Float writes one sample with a %g value.
func (w *Writer) Float(name string, v float64, labels ...string) {
	w.series(name, labels)
	fmt.Fprintf(&w.b, " %g\n", v)
}

func (w *Writer) series(name string, labels []string) {
	w.b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			w.b.WriteByte('{')
		} else {
			w.b.WriteByte(',')
		}
		fmt.Fprintf(&w.b, "%s=%q", labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		w.b.WriteByte('}')
	}
}

// Counter writes a family of one unlabelled integer sample.
func (w *Writer) Counter(name, help string, v int64) {
	w.Family(name, "counter", help)
	w.Int(name, v)
}

// Gauge writes a family of one unlabelled integer sample.
func (w *Writer) Gauge(name, help string, v int64) {
	w.Family(name, "gauge", help)
	w.Int(name, v)
}

// CounterFloat writes a family of one unlabelled %g sample.
func (w *Writer) CounterFloat(name, help string, v float64) {
	w.Family(name, "counter", help)
	w.Float(name, v)
}

// GaugeFloat writes a family of one unlabelled %g sample.
func (w *Writer) GaugeFloat(name, help string, v float64) {
	w.Family(name, "gauge", help)
	w.Float(name, v)
}

// ByKey writes one sample per key of vals, labelled label=key, in
// sorted key order.
func (w *Writer) ByKey(name, label string, vals map[string]int64) {
	for _, k := range sortedKeys(vals) {
		w.Int(name, vals[k], label, k)
	}
}

// ByCode writes one sample per (key, code) cell of c, labelled
// label=key and code=code, in sorted key then code order.
func (w *Writer) ByCode(name, label string, c Codes) {
	for _, k := range sortedKeys(c) {
		codes := make([]int, 0, len(c[k]))
		for code := range c[k] {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			w.Int(name, c[k][code], label, k, "code", fmt.Sprint(code))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
