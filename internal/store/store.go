// Package store is a disk-backed, content-addressed result store: one file
// per canonical run key, written atomically (temp file, fsync, rename) and
// wrapped in a versioned envelope whose checksum detects corruption. CROW
// simulations are deterministic and oracle-verified, so a result keyed by
// crow.Options.Key() is correct forever — which makes it safe to persist
// across process restarts and to share between nodes. The engine pool treats
// a Store as its Backing tier (engine.WithBacking): consulted on memo miss
// before executing, populated on success.
//
// Crash and corruption semantics: a reader never observes a partial write
// (rename is atomic on POSIX filesystems, and the data is fsynced before the
// rename); a file that fails the envelope check — wrong schema or version,
// mismatched key, checksum failure, truncation, unparseable JSON — is
// deleted and treated as a miss, so the run re-executes and rewrites it.
// Serving a corrupted result is therefore impossible by construction.
//
// Eviction is LRU by access time under a configurable byte cap. Access time
// is tracked by bumping the file's mtime on every hit (atime is unreliable
// under noatime mounts); GC removes the least-recently-used files until the
// store fits the cap again. Queued writes always land first — the cap is
// enforced after the write, so the newest result is never the one refused.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Version is the envelope format version. A bump invalidates every existing
// file (old versions read as misses), which is the upgrade story: results
// are a cache of deterministic computation, never the only copy.
const Version = 1

// Envelope is the on-disk wrapper around one stored result.
type Envelope struct {
	// Version is the envelope format version (store.Version at write time).
	Version int `json:"version"`
	// Schema names the value type (e.g. "crow.Report/v1"); a store only
	// returns values written under its own schema.
	Schema string `json:"schema"`
	// Key is the canonical run key the value answers, verbatim — the
	// filename is its hash, so the full key is kept for verification and
	// for humans inspecting the store.
	Key string `json:"key"`
	// SHA256 is the hex checksum of Value; a mismatch marks corruption.
	SHA256 string `json:"sha256"`
	// SavedAt records the write time (informational), truncated to whole
	// seconds so it always marshals at the same width: an envelope's size
	// then depends only on its key and value, which keeps the byte cap's
	// arithmetic exact.
	SavedAt time.Time `json:"saved_at"`
	// Value is the JSON encoding of the stored result.
	Value json.RawMessage `json:"value"`
}

// Stats is a point-in-time view of the store: the startup-scan numbers plus
// lifetime operation counters.
type Stats struct {
	// Files and Bytes describe the store's current on-disk footprint.
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
	// Hits / Misses count Get outcomes; Corrupt counts files that failed
	// the envelope check (each is also a miss and is deleted).
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Corrupt int64 `json:"corrupt"`
	// Writes counts results persisted; Evictions counts files the LRU GC
	// removed; Errors counts I/O failures (a Put that fails only loses
	// durability, never correctness).
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions"`
	Errors    int64 `json:"errors"`
}

// Store persists values of type V under string keys. It is safe for
// concurrent use. Create with Open.
type Store[V any] struct {
	dir      string
	schema   string
	maxBytes int64

	mu    sync.Mutex
	bytes int64 // current on-disk footprint (maintained incrementally)
	files int
	stats Stats // counters only; Files/Bytes filled from the fields above
}

// Option configures a Store.
type Option func(*config)

type config struct{ maxBytes int64 }

// MaxBytes caps the store's on-disk footprint; once a write pushes it past
// the cap, the least-recently-used files are evicted until it fits again.
// Zero (the default) means unbounded.
func MaxBytes(n int64) Option { return func(c *config) { c.maxBytes = n } }

// Open creates (if necessary) and scans the store directory, returning a
// Store whose Stats report the existing footprint — the crowserve startup
// scan. Leftover temp files from a crashed writer are removed. An over-cap
// directory is trimmed immediately.
func Open[V any](dir, schema string, opts ...Option) (*Store[V], error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store[V]{dir: dir, schema: schema, maxBytes: cfg.maxBytes}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.gcLocked()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store[V]) Dir() string { return s.dir }

// scan walks the directory, counting result files and deleting stale temp
// files; it initializes the incremental footprint counters.
func (s *Store[V]) scan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files, s.bytes = 0, 0
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			os.Remove(filepath.Join(s.dir, ent.Name()))
			continue
		}
		if !strings.HasSuffix(ent.Name(), suffix) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		s.files++
		s.bytes += info.Size()
	}
	return nil
}

// Stats returns the store's current footprint and lifetime counters.
func (s *Store[V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Files, st.Bytes = s.files, s.bytes
	return st
}

const (
	suffix    = ".json"
	tmpPrefix = ".tmp-"
)

// path maps a key to its file: the hex SHA-256 of the key, so arbitrary key
// bytes (the canonical keys are whole JSON documents) never fight the
// filesystem and the layout is content-addressed.
func (s *Store[V]) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+suffix)
}

// Get returns the stored value for key. Any defect — missing file, foreign
// schema or version, key mismatch (a hash collision or a copied file),
// checksum failure, undecodable payload — reads as a miss; defective files
// are deleted so the re-executed run rewrites them. A hit bumps the file's
// mtime, the LRU clock.
func (s *Store[V]) Get(key string) (V, bool) {
	var zero V
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return zero, false
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		s.discard(path, int64(len(data)))
		return zero, false
	}
	if env.Version != Version || env.Schema != s.schema || env.Key != key {
		// A foreign version/schema is not corruption per se, but it is
		// equally unusable; treat all three uniformly.
		s.discard(path, int64(len(data)))
		return zero, false
	}
	sum := sha256.Sum256(env.Value)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		s.discard(path, int64(len(data)))
		return zero, false
	}
	var v V
	if err := json.Unmarshal(env.Value, &v); err != nil {
		s.discard(path, int64(len(data)))
		return zero, false
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return v, true
}

// Put persists the value for key: marshal, envelope, write to a temp file in
// the same directory, fsync, rename over the final path, fsync the
// directory. A failed Put only costs durability (the in-memory memo still
// has the result), so errors are counted, not returned to the run path.
func (s *Store[V]) Put(key string, val V) {
	if err := s.put(key, val); err != nil {
		s.count(func(st *Stats) { st.Errors++ })
	}
}

func (s *Store[V]) put(key string, val V) error {
	raw, err := json.Marshal(val)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	env := Envelope{
		Version: Version,
		Schema:  s.schema,
		Key:     key,
		SHA256:  hex.EncodeToString(sum[:]),
		SavedAt: time.Now().UTC().Truncate(time.Second),
		Value:   raw,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}

	path := s.path(key)
	var prev int64
	if info, err := os.Stat(path); err == nil {
		prev = info.Size() // overwrite: footprint delta, not sum
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(s.dir)

	s.mu.Lock()
	if prev == 0 {
		s.files++
	}
	s.bytes += int64(len(data)) - prev
	s.stats.Writes++
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// GC evicts least-recently-used files until the store fits its byte cap; it
// returns how many files were removed. With no cap it is a no-op.
func (s *Store[V]) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

func (s *Store[V]) gcLocked() int {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return 0
	}
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		s.stats.Errors++
		return 0
	}
	var files []file
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), suffix) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, file{filepath.Join(s.dir, ent.Name()), info.Size(), info.ModTime()})
	}
	sort.Slice(files, func(a, b int) bool { return files[a].mtime.Before(files[b].mtime) })
	removed := 0
	for _, f := range files {
		if s.bytes <= s.maxBytes {
			break
		}
		if err := os.Remove(f.path); err != nil {
			s.stats.Errors++
			continue
		}
		s.bytes -= f.size
		s.files--
		s.stats.Evictions++
		removed++
	}
	return removed
}

// discard deletes a defective file and counts it as a corrupt miss.
func (s *Store[V]) discard(path string, size int64) {
	err := os.Remove(path)
	s.mu.Lock()
	if err == nil {
		s.files--
		s.bytes -= size
	}
	s.stats.Corrupt++
	s.stats.Misses++
	s.mu.Unlock()
}

func (s *Store[V]) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// syncDir fsyncs a directory so a rename survives power loss; best-effort,
// since not every filesystem supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
