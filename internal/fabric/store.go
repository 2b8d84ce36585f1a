package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// Entry is one durable simulation result, addressed by its content hash
// (prisimclient.CacheKeyFor). Because prilint's determinism analyzer
// guarantees a result is a pure function of the hashed inputs, an entry
// never expires and never needs invalidation.
type Entry struct {
	Key        string                  `json:"key"`
	Kernel     string                  `json:"kernel"`
	ComputedBy string                  `json:"computed_by,omitempty"`
	Created    time.Time               `json:"created"`
	Request    prisimclient.JobRequest `json:"request"`
	Result     prisim.Result           `json:"result"`

	// Output is the console output of a program job ("prisim-prog-v1"
	// keys); empty for simulate points. It is part of the deterministic
	// outcome, so it is stored and replayed like the Result. The field is
	// additive: v1 logs without it decode with Output nil.
	Output []byte `json:"output,omitempty"`
}

// MatrixRecord is one durable matrix submission: replayed on restart so an
// in-flight matrix survives a coordinator crash and resumes where the
// result log left off. Whether it finished is not recorded: a replayed
// matrix whose points are all in the result log completes from them.
type MatrixRecord struct {
	ID      string              `json:"id"`
	Spec    prisimclient.Matrix `json:"spec"`
	Created time.Time           `json:"created"`
}

// record is one line of the store's append-only log. Logs written before
// matrices stopped recording completion also hold "matrix_done" lines;
// replay skips them.
type record struct {
	Type   string        `json:"type"` // "result" or "matrix"
	Entry  *Entry        `json:"entry,omitempty"`
	Matrix *MatrixRecord `json:"matrix,omitempty"`
}

// Store is the fabric's durable content-addressed result store: an
// append-only JSON-lines log on disk plus an in-memory index, replayed on
// open. Appends are whole-line writes; a torn final line (crash mid-append,
// even one that lost only its newline) is repaired by truncating to the last
// complete record on the next open.
// A Store is safe for concurrent use.
type Store struct {
	mu sync.Mutex

	f    *os.File                // guarded by mu; nil = memory-only store
	path string                  // "" = memory-only
	ents map[string]Entry        // guarded by mu; by cache key
	mats map[string]MatrixRecord // guarded by mu; by matrix ID
	mord []string                // guarded by mu; matrix insertion order

	hits   uint64 // guarded by mu
	misses uint64 // guarded by mu
}

// OpenStore opens (creating if absent) the store log at path and replays it
// into memory. path "" selects a memory-only store: same semantics, nothing
// survives the process — useful for tests and for coordinators explicitly
// run without durability.
//
//prisim:locked — the store is under construction and unshared until return.
func OpenStore(path string) (*Store, error) {
	s := &Store{
		path: path,
		ents: make(map[string]Entry),
		mats: make(map[string]MatrixRecord),
	}
	if path == "" {
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric store: %w", err)
	}
	good, err := s.replayLocked(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Repair a torn tail: drop everything after the last complete record so
	// the next append starts on a clean line boundary.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("fabric store: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric store: %w", err)
	}
	s.f = f
	return s, nil
}

// replayLocked loads every complete record and returns the byte offset of
// the end of the last good line. A line is good only if it ends in a
// newline and decodes; replay stops at the first that is not. Lines have no
// length cap. Only OpenStore calls it, before the store is shared.
func (s *Store) replayLocked(f *os.File) (int64, error) {
	rd := bufio.NewReader(f)
	var good int64
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			// End of log, or a final line that lost its newline; the
			// caller truncates the latter.
			return good, nil
		}
		if err != nil {
			return good, fmt.Errorf("fabric store: replay: %w", err)
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			// Corrupt line — stop here; the caller truncates.
			return good, nil
		}
		good += int64(len(line))
		s.applyLocked(rec)
	}
}

// applyLocked folds one record into the in-memory index (first write wins
// for results: entries are immutable by construction). Only replayLocked
// calls it, before the store is shared.
func (s *Store) applyLocked(rec record) {
	switch rec.Type {
	case "result":
		if rec.Entry != nil {
			if _, ok := s.ents[rec.Entry.Key]; !ok {
				s.ents[rec.Entry.Key] = *rec.Entry
			}
		}
	case "matrix":
		if rec.Matrix != nil {
			if _, ok := s.mats[rec.Matrix.ID]; !ok {
				s.mats[rec.Matrix.ID] = *rec.Matrix
				s.mord = append(s.mord, rec.Matrix.ID)
			}
		}
	}
}

// appendLocked writes one record to the log. Callers hold s.mu.
func (s *Store) appendLocked(rec record) error {
	if s.f == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := s.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("fabric store: append: %w", err)
	}
	return nil
}

// Get returns the entry for key, counting a hit or miss.
func (s *Store) Get(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.ents[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return e, ok
}

// Put durably records one result. Re-putting an existing key is a no-op —
// results are content-addressed, so the first entry is as good as any.
func (s *Store) Put(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("fabric store: entry has no key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ents[e.Key]; ok {
		return nil
	}
	if err := s.appendLocked(record{Type: "result", Entry: &e}); err != nil {
		return err
	}
	s.ents[e.Key] = e
	return nil
}

// PutMatrix durably records a matrix submission (before any of its points
// dispatch, so a crash can always resume it). Known IDs are a no-op.
func (s *Store) PutMatrix(id string, spec prisimclient.Matrix, created time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mats[id]; ok {
		return nil
	}
	m := MatrixRecord{ID: id, Spec: spec, Created: created}
	if err := s.appendLocked(record{Type: "matrix", Matrix: &m}); err != nil {
		return err
	}
	s.mats[id] = m
	s.mord = append(s.mord, id)
	return nil
}

// Matrices snapshots every recorded matrix in submission order.
func (s *Store) Matrices() []MatrixRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MatrixRecord, 0, len(s.mord))
	for _, id := range s.mord {
		out = append(out, s.mats[id])
	}
	return out
}

// Len reports how many results the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ents)
}

// Stats reports the store's size and lookup counters.
func (s *Store) Stats() (entries int, hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ents), s.hits, s.misses
}

// Path reports the backing log file ("" for a memory-only store).
func (s *Store) Path() string { return s.path }

// Close releases the log file. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
