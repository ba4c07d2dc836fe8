package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req; a
// request's root span has Parent -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"` // inference spans: rows scored
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. It is safe
// for concurrent use: the enumeration may call the model from several
// goroutines at once. A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) start(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes span id, recording rows for an inference span.
func (r *recorder) end(id, rows int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Rows = rows
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes aggregates spans per name.
type layerTimes struct {
	total map[string]time.Duration // summed span durations
	self  map[string]time.Duration // summed self times
	count map[string]int
	rows  map[string]int
}

// aggregate computes per-name totals and self times. A span's self time is
// its duration minus the part of its interval covered by its children;
// children that overlap each other (concurrent inference calls) cover
// their union once, and a child's time outside its parent is ignored.
func aggregate(spans []span) layerTimes {
	lt := layerTimes{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
		rows:  map[string]int{},
	}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		d := s.dur()
		lt.total[s.Name] += d
		lt.self[s.Name] += d - covered(s, children[s.ID])
		lt.count[s.Name]++
		lt.rows[s.Name] += s.Rows
	}
	return lt
}

// covered returns how much of parent's interval the union of the children's
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return time.Duration(sum)
}
