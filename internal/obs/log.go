package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
)

// logLevel is the level gate shared by every handler InitLogging
// installs, so SetLogLevel takes effect without rebuilding the logger.
var logLevel slog.LevelVar

// logger is the process-wide structured logger. It starts nil and is
// materialized lazily by Logger so that importing obs never constructs
// handlers in library/test contexts that don't log.
var logger atomic.Pointer[slog.Logger]

// Logger returns the process-wide structured logger (never nil). The
// default is a text handler on stderr at Info level.
func Logger() *slog.Logger {
	if l := logger.Load(); l != nil {
		return l
	}
	l := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &logLevel}))
	// Racing initializers may both build a default; either is fine.
	logger.CompareAndSwap(nil, l)
	return logger.Load()
}

// SetLogger swaps the process-wide logger. Passing nil restores the
// lazy default.
func SetLogger(l *slog.Logger) { logger.Store(l) }

// SetLogLevel adjusts the level of every handler installed by
// InitLogging (and of the lazy default handler).
func SetLogLevel(l slog.Level) { logLevel.Set(l) }

// InitLogging installs a fresh handler writing to w — JSON when json is
// set, logfmt-style text otherwise — and sets the level gate. Commands
// call this once from flag handling.
func InitLogging(w io.Writer, level slog.Level, json bool) {
	logLevel.Set(level)
	opts := &slog.HandlerOptions{Level: &logLevel}
	if json {
		SetLogger(slog.New(slog.NewJSONHandler(w, opts)))
	} else {
		SetLogger(slog.New(slog.NewTextHandler(w, opts)))
	}
}

// ParseLogLevel maps the conventional flag spellings to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
	return l, nil
}

// A Reporter serializes human-facing output: each Printf formats the
// whole line first and issues exactly one Write under one mutex, so
// progress lines emitted by concurrent goroutines (the sweep workers,
// the profiling passes, the main loop) can never interleave
// mid-line. A nil Reporter discards output.
type Reporter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewReporter returns a reporter writing to w.
func NewReporter(w io.Writer) *Reporter { return &Reporter{w: w} }

// Printf formats and writes one chunk of output atomically with respect
// to other Reporter calls. Unlike fmt.Printf it never splits a write.
func (r *Reporter) Printf(format string, args ...any) {
	if r == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	io.WriteString(r.w, msg)
}

// Println writes one line atomically.
func (r *Reporter) Println(args ...any) {
	if r == nil {
		return
	}
	msg := fmt.Sprintln(args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	io.WriteString(r.w, msg)
}

// progress is the process-wide reporter used by Progressf. Defaults to
// stdout; swapped atomically so tests can capture output.
var progress atomic.Pointer[Reporter]

func init() { progress.Store(NewReporter(os.Stdout)) }

// SetProgressWriter redirects process-wide progress output.
func SetProgressWriter(w io.Writer) { progress.Store(NewReporter(w)) }

// Progressf writes human-facing progress/report output through the
// single process-wide serialized reporter. It is the replacement for
// ad-hoc fmt.Printf in commands.
func Progressf(format string, args ...any) { progress.Load().Printf(format, args...) }

// Progressln writes one line through the process-wide reporter.
func Progressln(args ...any) { progress.Load().Println(args...) }
