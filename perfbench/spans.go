package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark side. Layer is the span name's package prefix
// ("system.Advance" belongs to "system"); Tag names the job, cell or
// window the call served.
type span struct {
	name       string
	tag        string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for a root
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's single driving goroutine only. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of unfinished spans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name, tag string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, tag: tag, start: time.Since(t.origin), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.origin)
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the parts of those intervals their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer()] += s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps), the format internal/trace's
// ChromeSink emits, so both open side by side in Perfetto.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		name, _ := json.Marshal(s.name)
		tag, _ := json.Marshal(s.tag)
		fmt.Fprintf(w, `{"name":%s,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"id":%d,"parent":%d,"tag":%s}}`,
			name, s.layer(), float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, tag)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
