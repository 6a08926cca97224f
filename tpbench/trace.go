package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/sample/serve"
	"repro/sample/snap"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the boundary. Spans of one request share RID;
// Parent is filled in when the spans are written out.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	RID    string `json:"rid,omitempty"`
	Node   int    `json:"node"`
	Status int    `json:"status,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every wrapper checks for it and records nothing.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// parentNames maps a span name to the names its parent may carry; the
// parent is the span with the same request ID (store spans: the
// checkpoint or restore on the same node whose interval covers them).
var parentNames = map[string][]string{
	"node.ingest":         {"client.ingest"},
	"agg.query":           {"client.query"},
	"agg.fetch":           {"agg.query"},
	"node.snapshot_304":   {"agg.fetch"},
	"node.snapshot_delta": {"agg.fetch"},
	"node.snapshot_full":  {"agg.fetch"},
	"store.put":           {"node.checkpoint"},
	"store.get":           {"restore"},
	"store.names":         {"node.checkpoint", "restore"},
	"store.remove":        {"node.checkpoint"},
}

// writeSpans writes spans as JSON lines, one per span, after resolving
// each span's parent.
func writeSpans(path string, spans []span) error {
	byRID := map[string][]int{}
	for i, s := range spans {
		if s.RID != "" {
			byRID[s.RID] = append(byRID[s.RID], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		want := parentNames[s.Name]
		if want == nil {
			continue
		}
		if s.RID != "" {
			for _, j := range byRID[s.RID] {
				if contains(want, spans[j].Name) {
					s.Parent = fmt.Sprintf("%s#%d", spans[j].Name, j)
					break
				}
			}
			continue
		}
		for j, q := range spans {
			if q.Node == s.Node && contains(want, q.Name) && q.Start <= s.Start && s.End <= q.End {
				s.Parent = fmt.Sprintf("%s#%d", q.Name, j)
				break
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// statusWriter captures the status a handler answers with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// traceNode wraps a node's handler: POST /ingest and GET /snapshot
// become node.* spans, the snapshot split by how it was answered.
func traceNode(t *tracer, node int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(sw, r)
		end := t.now()
		name := "node.other"
		switch r.URL.Path {
		case "/ingest":
			name = "node.ingest"
		case "/snapshot":
			switch {
			case sw.status == http.StatusNotModified:
				name = "node.snapshot_304"
			case w.Header().Get("X-Snapshot-Base") != "":
				name = "node.snapshot_delta"
			default:
				name = "node.snapshot_full"
			}
		}
		t.add(span{Name: name, Start: start, End: end, RID: r.Header.Get(ridHeader), Node: node, Status: sw.status})
	})
}

// traceAggregator wraps the aggregator's handler: every query becomes
// an agg.query span.
func traceAggregator(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(sw, r)
		t.add(span{Name: "agg.query", Start: start, End: t.now(), RID: r.Header.Get(ridHeader), Node: -1, Status: sw.status})
	})
}

// fetchTransport is the aggregator's RoundTripper: each node fetch
// becomes an agg.fetch span that ends when the body is closed, with
// its status, body bytes and whether it carried a delta.
type fetchTransport struct {
	t     *tracer
	base  http.RoundTripper
	nodes map[string]int // host:port → node index
}

func (ft *fetchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ft.t == nil {
		return ft.base.RoundTrip(req)
	}
	s := span{Name: "agg.fetch", Start: ft.t.now(), RID: req.Header.Get(ridHeader), Node: ft.nodes[req.URL.Host]}
	resp, err := ft.base.RoundTrip(req)
	if err != nil {
		s.End, s.Kind = ft.t.now(), "error"
		ft.t.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	switch {
	case resp.StatusCode == http.StatusNotModified:
		s.Kind = "304"
	case resp.Header.Get("X-Snapshot-Base") != "":
		s.Kind = "delta"
	default:
		s.Kind = "full"
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: ft.t, s: s}
	return resp, nil
}

// spanBody counts a fetch's body bytes and closes its span on Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// benchStore wraps a node's SnapshotStore. It always counts the bytes
// and full/delta checkpoints handed to Put (store_bytes_per_kitem is
// an end-to-end metric); when tracing it also records store.* spans.
type benchStore struct {
	s    serve.SnapshotStore
	t    *tracer
	node int

	putBytes  atomic.Int64
	fullPuts  atomic.Int64
	deltaPuts atomic.Int64
}

func (b *benchStore) Put(name string, data []byte) error {
	var start int64
	if b.t != nil {
		start = b.t.now()
	}
	err := b.s.Put(name, data)
	kind := "full"
	if snap.IsDelta(data) {
		kind = "delta"
	}
	if err == nil {
		b.putBytes.Add(int64(len(data)))
		if kind == "delta" {
			b.deltaPuts.Add(1)
		} else {
			b.fullPuts.Add(1)
		}
	}
	if b.t != nil {
		b.t.add(span{Name: "store.put", Start: start, End: b.t.now(), Node: b.node, Kind: kind, Bytes: int64(len(data))})
	}
	return err
}

func (b *benchStore) Get(name string) ([]byte, error) {
	var start int64
	if b.t != nil {
		start = b.t.now()
	}
	data, err := b.s.Get(name)
	if b.t != nil {
		b.t.add(span{Name: "store.get", Start: start, End: b.t.now(), Node: b.node, Bytes: int64(len(data))})
	}
	return data, err
}

func (b *benchStore) Names() ([]string, error) {
	var start int64
	if b.t != nil {
		start = b.t.now()
	}
	names, err := b.s.Names()
	if b.t != nil {
		b.t.add(span{Name: "store.names", Start: start, End: b.t.now(), Node: b.node})
	}
	return names, err
}

func (b *benchStore) Remove(name string) error {
	var start int64
	if b.t != nil {
		start = b.t.now()
	}
	err := b.s.Remove(name)
	if b.t != nil {
		b.t.add(span{Name: "store.remove", Start: start, End: b.t.now(), Node: b.node})
	}
	return err
}

// timeSpan runs f and, when tracing, records it as a span.
func (t *tracer) timeSpan(name string, node int, f func() error) error {
	if t == nil {
		return f()
	}
	start := t.now()
	err := f()
	t.add(span{Name: name, Start: start, End: t.now(), Node: node})
	return err
}

// spansIn selects spans by name within [from, to) of the run clock.
func spansIn(spans []span, name string, from, to int64) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that
// its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	first := true
	for _, x := range ivs {
		if first || x.a > curB {
			if !first {
				covered += curB - curA
			}
			curA, curB, first = x.a, x.b, false
		} else if x.b > curB {
			curB = x.b
		}
	}
	if !first {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}
