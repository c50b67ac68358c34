package obs

// maxSpans bounds a registry's finished-span buffer.
const maxSpans = 4096

// Open spans and their attributes are carved from chunks of these many
// elements, so opening a span allocates once per chunk rather than once
// per span. A chunk is never reused: a caller may hold a *Span after
// End, and the chunk lives until the garbage collector finds no span
// of it referenced. Finished spans are kept in chunks of spanChunkLen
// too, so the store grows by one chunk at a time and never copies what
// it holds.
const (
	spanChunkLen = 256
	attrChunkLen = 512
)

// Span is one timed operation. Spans form trees through StartChild and
// carry free-form attributes. A nil *Span is the no-op span: every
// method is nil-safe, so disabled instrumentation costs a nil check.
type Span struct {
	reg    *Registry
	id     uint64
	parent uint64
	name   string
	start  float64
	attrs  []Label
}

// SpanRecord is one finished span as kept by the registry and exposed
// in snapshots.
type SpanRecord struct {
	ID       uint64  `json:"id"`
	ParentID uint64  `json:"parent_id,omitempty"`
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
	DurS     float64 `json:"dur_s"`
	Attrs    []Label `json:"attrs,omitempty"`
}

// StartSpan opens a root span at the registry clock's current time.
func (r *Registry) StartSpan(name string, labels ...Label) *Span {
	return r.StartSpanAt(name, r.Now(), labels...)
}

// StartSpanAt opens a root span at an explicit time in seconds. The span
// and a copy of labels are carved from the registry's chunks.
func (r *Registry) StartSpanAt(name string, at float64, labels ...Label) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSpanID++
	if len(r.spanChunk) == cap(r.spanChunk) {
		r.spanChunk = make([]Span, 0, spanChunkLen)
	}
	r.spanChunk = append(r.spanChunk, Span{reg: r, id: r.nextSpanID, name: name, start: at})
	s := &r.spanChunk[len(r.spanChunk)-1]
	if len(labels) > 0 {
		if cap(r.attrChunk)-len(r.attrChunk) < len(labels) {
			r.attrChunk = make([]Label, 0, max(attrChunkLen, len(labels)))
		}
		i := len(r.attrChunk)
		r.attrChunk = append(r.attrChunk, labels...)
		// The full slice expression caps the span's attributes at its
		// own, so SetAttr reallocates instead of writing over the next
		// span's.
		s.attrs = r.attrChunk[i:len(r.attrChunk):len(r.attrChunk)]
	}
	return s
}

// StartChild opens a sub-span at the registry clock's current time.
func (s *Span) StartChild(name string, labels ...Label) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, s.reg.Now(), labels...)
}

// StartChildAt opens a sub-span at an explicit time.
func (s *Span) StartChildAt(name string, at float64, labels ...Label) *Span {
	if s == nil {
		return nil
	}
	c := s.reg.StartSpanAt(name, at, labels...)
	c.parent = s.id
	return c
}

// SetAttr attaches (or appends) one attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
}

// End closes the span at the registry clock's current time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.reg.Now())
}

// EndAt closes the span at an explicit time and records it. The
// registry keeps at most maxSpans finished spans; older runs are not
// evicted — further spans are counted as dropped so a snapshot can say
// the trace is truncated.
func (s *Span) EndAt(at float64) {
	if s == nil {
		return
	}
	if at < s.start {
		// An end before the start (a virtual-clock caller mixing time
		// bases) would record a negative duration; clamp to a zero-length
		// span at the start instead.
		at = s.start
	}
	rec := SpanRecord{
		ID:       s.id,
		ParentID: s.parent,
		Name:     s.name,
		StartS:   s.start,
		EndS:     at,
		DurS:     at - s.start,
		Attrs:    s.attrs,
	}
	r := s.reg
	r.mu.Lock()
	if r.nDone < maxSpans {
		if r.nDone%spanChunkLen == 0 {
			r.done = append(r.done, make([]SpanRecord, 0, spanChunkLen))
		}
		last := &r.done[len(r.done)-1]
		*last = append(*last, rec)
		r.nDone++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns a copy of the finished spans and how many were dropped
// after the buffer filled.
func (r *Registry) Spans() ([]SpanRecord, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finishedSpans(), r.dropped
}

// finishedSpans copies the finished spans, in completion order, into one
// slice of their exact length; caller holds r.mu.
func (r *Registry) finishedSpans() []SpanRecord {
	out := make([]SpanRecord, 0, r.nDone)
	for _, c := range r.done {
		out = append(out, c...)
	}
	return out
}
