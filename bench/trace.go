package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed interval of the benchmark's own work around a call into
// a layer. Spans of one request share a root: Parent names the span that
// caused this one (zero for a root). Times are nanoseconds since the run's
// start.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Spans keeps a run's spans in memory until WriteJSONL. A nil *Spans records
// nothing, so timed runs pay one nil check per call site.
type Spans struct {
	base time.Time
	mu   sync.Mutex
	list []Span
}

// NewSpans starts a span log whose clock reads zero now.
func NewSpans() *Spans { return &Spans{base: time.Now()} }

// Add records one span and returns its id (zero on a nil log).
func (s *Spans) Add(parent int64, name string, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, Span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(s.base).Nanoseconds(), End: end.Sub(s.base).Nanoseconds(),
	})
	return id
}

// WriteJSONL writes one JSON object per span to path.
func (s *Spans) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
