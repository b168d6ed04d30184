package redis

import (
	"sort"
	"strings"
	"sync"
)

// entryType mirrors the strings Redis' TYPE command reports.
type entryType string

// Entry types supported by the honeypot store.
const (
	TypeString entryType = "string"
	TypeHash   entryType = "hash"
)

type entry struct {
	typ  entryType
	str  string
	hash map[string]string
}

// Store is the in-memory keyspace behind the honeypot. It is intentionally
// small: enough for attackers to SET droppers, for the fake-data config to
// hold bait credentials, and for TYPE/KEYS probing (the paper observed
// adversaries walking the fake entries with TYPE one by one).
type Store struct {
	mu   sync.RWMutex
	data map[string]entry
	// config holds CONFIG GET/SET state; SLAVEOF-style attacks rewrite
	// dir/dbfilename, and the session log captures every change.
	config map[string]string
}

// NewStore returns an empty store with Redis-like default config values.
func NewStore() *Store {
	return &Store{
		data: make(map[string]entry),
		config: map[string]string{
			"dir":            "/var/lib/redis",
			"dbfilename":     "dump.rdb",
			"rdbcompression": "yes",
			"save":           "3600 1 300 100 60 10000",
			"appendonly":     "no",
			"maxmemory":      "0",
			"logfile":        "",
		},
	}
}

// Set stores a string value.
func (s *Store) Set(key, val string) {
	s.mu.Lock()
	s.data[key] = entry{typ: TypeString, str: val}
	s.mu.Unlock()
}

// SetHash stores a hash value.
func (s *Store) SetHash(key string, fields map[string]string) {
	h := make(map[string]string, len(fields))
	for k, v := range fields {
		h[k] = v
	}
	s.mu.Lock()
	s.data[key] = entry{typ: TypeHash, hash: h}
	s.mu.Unlock()
}

// Get returns the string value for key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok || e.typ != TypeString {
		return "", false
	}
	return e.str, true
}

// Hash returns a copy of the hash stored at key.
func (s *Store) Hash(key string) (map[string]string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok || e.typ != TypeHash {
		return nil, false
	}
	out := make(map[string]string, len(e.hash))
	for k, v := range e.hash {
		out[k] = v
	}
	return out, true
}

// Type reports the Redis type name for key, or "none".
func (s *Store) Type(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok {
		return "none"
	}
	return string(e.typ)
}

// Del removes keys and reports how many existed.
func (s *Store) Del(keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if _, ok := s.data[k]; ok {
			delete(s.data, k)
			n++
		}
	}
	return n
}

// Exists reports how many of the given keys exist.
func (s *Store) Exists(keys ...string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, k := range keys {
		if _, ok := s.data[k]; ok {
			n++
		}
	}
	return n
}

// Keys returns the sorted keys matching a glob pattern (only "*", prefix*
// and exact match are supported, which covers observed attacker usage).
func (s *Store) Keys(pattern string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.data {
		if globMatch(pattern, k) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of keys (DBSIZE).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Flush removes all keys (FLUSHDB / FLUSHALL).
func (s *Store) Flush() {
	s.mu.Lock()
	s.data = make(map[string]entry)
	s.mu.Unlock()
}

// ConfigGet returns the configuration value for key.
func (s *Store) ConfigGet(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.config[strings.ToLower(key)]
	return v, ok
}

// ConfigSet stores a configuration value.
func (s *Store) ConfigSet(key, val string) {
	s.mu.Lock()
	s.config[strings.ToLower(key)] = val
	s.mu.Unlock()
}

func globMatch(pattern, s string) bool {
	switch {
	case pattern == "*" || pattern == "":
		return true
	case strings.HasSuffix(pattern, "*") && strings.Count(pattern, "*") == 1:
		return strings.HasPrefix(s, strings.TrimSuffix(pattern, "*"))
	case strings.HasPrefix(pattern, "*") && strings.Count(pattern, "*") == 1:
		return strings.HasSuffix(s, strings.TrimPrefix(pattern, "*"))
	default:
		return pattern == s
	}
}
