// Package atomicio writes files atomically: content goes to a temporary
// file in the destination directory and is renamed into place only after a
// successful write and sync. Readers therefore never observe a partially
// written file — a crashed or interrupted writer leaves either the old
// content or nothing, which is what lets the CSV, profile and manifest
// writers and the service's tenant store survive a Ctrl-C or a crash.
package atomicio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"partitionshare/internal/faultinject"
)

// Fault points (internal/faultinject) in the atomic write path. They are
// nil-check no-ops in production; chaos tests arm them to prove that an
// I/O error or torn write at any step leaves the destination untouched.
const (
	// FaultWrite wraps the writer handed to the write callback: a firing
	// partial-write rule truncates the temp-file content mid-stream.
	FaultWrite = "atomicio.write"
	// FaultSync fires between the content sync and the rename — the
	// widest crash window: the temp file is complete but the destination
	// still holds the old content.
	FaultSync = "atomicio.sync"
)

// WriteFile writes the output of write to path atomically. The write
// callback receives a buffered writer backed by a temporary file next to
// path; on success the temporary file is synced, closed, and renamed over
// path with mode 0o644. On any failure the temporary file is removed and
// path is left untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(faultinject.Writer(FaultWrite, bw)); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	// Sync before rename so a crash right after the rename cannot leave an
	// empty or partial file under the final name.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err = faultinject.Hit(FaultSync); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}

// WriteFileBytes writes data to path atomically.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
