// Package pipeline reproduces the paper's data-processing pipeline
// (Figure 1): honeypots write log files in their own formats; conversion
// readers standardise them; GeoIP/ASN enrichment is applied; and the
// result lands in a queryable evstore.Store.
//
// Two on-disk formats are produced, mirroring the heterogeneity of the
// real deployment: the low-interaction (Qeeqbox-style) honeypots log
// credential-centric records, while the medium/high honeypots log
// command-centric session records. Both are JSON lines, one file per
// (DBMS, config) pair — the same consolidation the paper's published
// dataset uses.
//
// JSON strings hold UTF-8 only, and attackers send arbitrary bytes (a
// TLS or RDP probe's payload). An attacker-supplied field that is not
// valid UTF-8 is written base64-encoded under a sibling key ending in
// "_b64", its plain key left out, so it reads back byte for byte; every
// other line is plain JSON.
package pipeline

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
)

// qeeqboxRecord is the low-interaction log line shape (credential traps).
type qeeqboxRecord struct {
	Timestamp string `json:"timestamp"`
	Action    string `json:"action"` // "connection", "login", "disconnect"
	SrcIP     string `json:"src_ip"`
	SrcPort   uint16 `json:"src_port"`
	Server    string `json:"server"` // dbms name
	Username  string `json:"username,omitempty"`
	UserB64   string `json:"username_b64,omitempty"`
	Password  string `json:"password,omitempty"`
	PassB64   string `json:"password_b64,omitempty"`
	Instance  int    `json:"instance"`
	Group     string `json:"group"`
	VM        string `json:"vm"`
}

// sessionRecord is the medium/high-interaction log line shape.
type sessionRecord struct {
	Time    string `json:"time"`
	Addr    string `json:"addr"`
	Event   string `json:"event"` // "connect", "login", "command", "close"
	DBMS    string `json:"dbms"`
	Level   string `json:"level"`
	Config  string `json:"config"`
	Group   string `json:"group"`
	Region  string `json:"region,omitempty"`
	Inst    int    `json:"instance"`
	User    string `json:"user,omitempty"`
	UserB64 string `json:"user_b64,omitempty"`
	Pass    string `json:"pass,omitempty"`
	PassB64 string `json:"pass_b64,omitempty"`
	OK      bool   `json:"ok,omitempty"`
	Command string `json:"cmd,omitempty"`
	CmdB64  string `json:"cmd_b64,omitempty"`
	Raw     string `json:"raw,omitempty"`
	RawB64  string `json:"raw_b64,omitempty"`
}

// encodeText splits an attacker-supplied string into a line's plain
// field and its base64 sibling: valid UTF-8 goes in the plain field,
// anything else, which encoding/json would mangle, base64-encoded in the
// sibling.
func encodeText(s string) (plain, b64 string) {
	if utf8.ValidString(s) {
		return s, ""
	}
	return "", base64.StdEncoding.EncodeToString([]byte(s))
}

// decodeText is encodeText's inverse: it replaces *plain with the bytes
// of its base64 sibling, when there is one.
func decodeText(plain *string, b64 string) error {
	if b64 == "" {
		return nil
	}
	b, err := base64.StdEncoding.DecodeString(b64)
	*plain = string(b)
	return err
}

// LogWriter is a core.Sink that writes honeypot-native log files under a
// directory. It also implements bus.BatchSink: batch delivery takes the
// lock once and flushes each touched file once per batch, so at bus
// batch sizes the per-event cost is a buffered write. Close flushes and
// closes all files.
//
// Write errors are never silently swallowed: every failed event is
// counted (ErrCount), the first error is retained (Err, Close), and
// RecordBatch returns it to the caller — the bus surfaces it per sink.
type LogWriter struct {
	dir string

	mu       sync.Mutex
	files    map[fileKey]*logFile
	touched  []*logFile // files written in the current batch, each once
	err      error      // first write error
	failures int64      // write/marshal/flush failures observed
}

// fileKey names a log file by the honeypot fields its name is made of,
// so finding the file for an event formats nothing; the name is
// formatted once, when the file is created.
type fileKey struct{ dbms, group, config string }

type logFile struct {
	f *os.File
	w *bufio.Writer
}

// NewLogWriter creates (or reuses) dir and returns a writer. Files
// already in dir are appended to, not replaced.
func NewLogWriter(dir string) (*LogWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: create log dir: %w", err)
	}
	return &LogWriter{dir: dir, files: make(map[fileKey]*logFile)}, nil
}

// Record implements core.Sink. Errors are counted and retained (see
// Err); per-event callers on the hot path should prefer the bus, which
// delivers batches via RecordBatch.
func (lw *LogWriter) Record(e core.Event) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if _, err := lw.record(e); err != nil {
		lw.note(err)
	}
}

// RecordBatch implements bus.BatchSink: one lock and one flush per
// touched file per batch. It returns the first error of the batch.
func (lw *LogWriter) RecordBatch(events []core.Event) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	var first error
	note := func(err error) {
		lw.note(err)
		if first == nil {
			first = err
		}
	}
	for _, e := range events {
		lf, err := lw.record(e)
		if err != nil {
			note(err)
			continue
		}
		if !slices.Contains(lw.touched, lf) {
			lw.touched = append(lw.touched, lf)
		}
	}
	for _, lf := range lw.touched {
		if err := lf.w.Flush(); err != nil {
			note(err)
		}
	}
	lw.touched = lw.touched[:0]
	return first
}

func (lw *LogWriter) record(e core.Event) (*logFile, error) {
	h := e.Honeypot
	key := fileKey{h.DBMS, h.Group, h.Config}
	lf, ok := lw.files[key]
	if !ok {
		name := fmt.Sprintf("%s_%s_%s.json", h.DBMS, h.Group, h.Config)
		f, err := openLog(filepath.Join(lw.dir, name))
		if err != nil {
			return nil, err
		}
		lf = &logFile{f: f, w: bufio.NewWriterSize(f, 64*1024)}
		lw.files[key] = lf
	}
	var line any
	if e.Honeypot.Level == core.Low {
		line = toQeeqbox(e)
	} else {
		line = toSession(e)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	if _, err := lf.w.Write(b); err != nil {
		return nil, err
	}
	if err := lf.w.WriteByte('\n'); err != nil {
		return nil, err
	}
	return lf, nil
}

// openLog opens a log file for append, creating it if need be, so a farm
// restarted over the same directory keeps what earlier runs logged. A
// file that ends in half a line, left by a writer that died mid-write,
// is first cut back to its last newline: Load must never meet a new line
// glued onto a torn one.
func openLog(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := wholeLines(f)
	if err == nil {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// wholeLines returns the length of the longest prefix of f that ends in
// a newline, reading back from the end a chunk at a time.
func wholeLines(f *os.File) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64*1024)
	for end := fi.Size(); end > 0; {
		n := min(int64(len(buf)), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return end - n + int64(i) + 1, nil
		}
		end -= n
	}
	return 0, nil
}

// note records a write failure, retaining the first error. Callers hold
// lw.mu.
func (lw *LogWriter) note(err error) {
	lw.failures++
	if lw.err == nil {
		lw.err = err
	}
}

// Err returns the first write error seen so far, or nil.
func (lw *LogWriter) Err() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.err
}

// ErrCount reports the number of write failures observed.
func (lw *LogWriter) ErrCount() int64 {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.failures
}

// Close flushes and closes every log file, returning the first error seen
// during writing or closing.
func (lw *LogWriter) Close() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	err := lw.err
	for _, lf := range lw.files {
		if e := lf.w.Flush(); e != nil && err == nil {
			err = e
		}
		if e := lf.f.Close(); e != nil && err == nil {
			err = e
		}
	}
	lw.files = map[fileKey]*logFile{}
	return err
}

func toQeeqbox(e core.Event) qeeqboxRecord {
	r := qeeqboxRecord{
		Timestamp: e.Time.UTC().Format(time.RFC3339Nano),
		SrcIP:     e.Src.Addr().String(),
		SrcPort:   e.Src.Port(),
		Server:    e.Honeypot.DBMS,
		Instance:  e.Honeypot.Instance,
		Group:     e.Honeypot.Group,
		VM:        e.Honeypot.VM,
	}
	switch e.Kind {
	case core.EventConnect:
		r.Action = "connection"
	case core.EventLogin:
		r.Action = "login"
		r.Username, r.UserB64 = encodeText(e.User)
		r.Password, r.PassB64 = encodeText(e.Pass)
	case core.EventCommand:
		r.Action = "command"
		// qeeqbox abuses fields; conversion handles it
		r.Username, r.UserB64 = encodeText(e.Command)
		r.Password, r.PassB64 = encodeText(e.Raw)
	case core.EventClose:
		r.Action = "disconnect"
	}
	return r
}

func toSession(e core.Event) sessionRecord {
	r := sessionRecord{
		Time:   e.Time.UTC().Format(time.RFC3339Nano),
		Addr:   e.Src.String(),
		Event:  e.Kind.String(),
		DBMS:   e.Honeypot.DBMS,
		Level:  e.Honeypot.Level.String(),
		Config: e.Honeypot.Config,
		Group:  e.Honeypot.Group,
		Region: e.Honeypot.Region,
		Inst:   e.Honeypot.Instance,
		OK:     e.OK,
	}
	r.User, r.UserB64 = encodeText(e.User)
	r.Pass, r.PassB64 = encodeText(e.Pass)
	r.Command, r.CmdB64 = encodeText(e.Command)
	r.Raw, r.RawB64 = encodeText(e.Raw)
	return r
}

// Load parses every log file in dir, enriches sources against geo, and
// feeds the events into a new store covering [start, start+days).
func Load(dir string, start time.Time, days int, geo *geoip.DB) (*evstore.Store, error) {
	store := evstore.New(start, days, geo)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pipeline: read log dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if !ent.IsDir() && filepath.Ext(ent.Name()) == ".json" {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := loadFile(filepath.Join(dir, name), store); err != nil {
			return nil, fmt.Errorf("pipeline: %s: %w", name, err)
		}
	}
	return store, nil
}

func loadFile(path string, store *evstore.Store) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256*1024)
	lineNo := 0
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 1 {
			lineNo++
			ev, perr := parseLine(line)
			if perr != nil {
				return fmt.Errorf("line %d: %w", lineNo, perr)
			}
			store.Record(ev)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// parseLine converts either log format back into a core.Event. The two
// formats are distinguished by their marker fields ("server" vs "dbms"),
// playing the role of the paper's per-honeypot conversion scripts.
func parseLine(line []byte) (core.Event, error) {
	var probe struct {
		Server string `json:"server"`
		DBMS   string `json:"dbms"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return core.Event{}, err
	}
	if probe.Server != "" {
		var r qeeqboxRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return core.Event{}, err
		}
		return fromQeeqbox(r)
	}
	var r sessionRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return core.Event{}, err
	}
	return fromSession(r)
}

// parseTime reads a line's timestamp. LogWriter writes it in UTC, and
// RFC 3339 writes years 0000 to 9999 only, so a time outside them in
// UTC is not a line LogWriter could have written, and it is refused.
func parseTime(s string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, err
	}
	if y := t.UTC().Year(); y < 0 || y > 9999 {
		return time.Time{}, fmt.Errorf("time %q is in year %d in UTC", s, y)
	}
	return t, nil
}

func fromQeeqbox(r qeeqboxRecord) (core.Event, error) {
	t, err := parseTime(r.Timestamp)
	if err != nil {
		return core.Event{}, err
	}
	addr, err := netip.ParseAddr(r.SrcIP)
	if err != nil {
		return core.Event{}, err
	}
	if err := errors.Join(decodeText(&r.Username, r.UserB64), decodeText(&r.Password, r.PassB64)); err != nil {
		return core.Event{}, err
	}
	e := core.Event{
		Time: t,
		Src:  netip.AddrPortFrom(addr, r.SrcPort),
		Honeypot: core.Info{
			DBMS: r.Server, Level: core.Low, Port: core.DefaultPort(r.Server),
			Instance: r.Instance, Config: core.ConfigDefault, Group: r.Group, VM: r.VM,
		},
	}
	switch r.Action {
	case "connection":
		e.Kind = core.EventConnect
	case "login":
		e.Kind = core.EventLogin
		e.User, e.Pass = r.Username, r.Password
	case "command":
		e.Kind = core.EventCommand
		e.Command, e.Raw = r.Username, r.Password
	case "disconnect":
		e.Kind = core.EventClose
	default:
		return core.Event{}, fmt.Errorf("unknown qeeqbox action %q", r.Action)
	}
	return e, nil
}

func fromSession(r sessionRecord) (core.Event, error) {
	t, err := parseTime(r.Time)
	if err != nil {
		return core.Event{}, err
	}
	src, err := netip.ParseAddrPort(r.Addr)
	if err != nil {
		return core.Event{}, err
	}
	err = errors.Join(decodeText(&r.User, r.UserB64), decodeText(&r.Pass, r.PassB64),
		decodeText(&r.Command, r.CmdB64), decodeText(&r.Raw, r.RawB64))
	if err != nil {
		return core.Event{}, err
	}
	var level core.Level
	switch r.Level {
	case "low":
		level = core.Low
	case "medium":
		level = core.Medium
	case "high":
		level = core.High
	default:
		return core.Event{}, fmt.Errorf("unknown level %q", r.Level)
	}
	e := core.Event{
		Time: t,
		Src:  src,
		Honeypot: core.Info{
			DBMS: r.DBMS, Level: level, Port: core.DefaultPort(r.DBMS),
			Instance: r.Inst, Config: r.Config, Group: r.Group, Region: r.Region,
		},
		User: r.User, Pass: r.Pass, OK: r.OK,
		Command: r.Command, Raw: r.Raw,
	}
	switch r.Event {
	case "connect":
		e.Kind = core.EventConnect
	case "login":
		e.Kind = core.EventLogin
	case "command":
		e.Kind = core.EventCommand
	case "close":
		e.Kind = core.EventClose
	default:
		return core.Event{}, fmt.Errorf("unknown event %q", r.Event)
	}
	return e, nil
}
