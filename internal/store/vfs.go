package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// VFS is the small filesystem surface the durability layer runs on: the
// backing data file, the write-ahead log, and the checkpoint side files all
// perform their I/O through a VFS so crash tests can substitute CrashFS —
// an in-memory filesystem that tears writes and simulates power cuts —
// while production code uses OSFS.
//
// Durability semantics implementations must provide:
//
//   - writes become durable only after VFile.Sync returns;
//   - Rename atomically replaces newname with oldname's file, and the
//     rename itself is durable once it returns (journaled-filesystem
//     behavior) — callers still Sync file *contents* before renaming;
//   - a missing file is reported with an error satisfying
//     errors.Is(err, fs.ErrNotExist).
type VFS interface {
	// OpenFile opens name for read/write, creating it (empty) if absent.
	OpenFile(name string) (VFile, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name. Removing a missing file is an error
	// (fs.ErrNotExist).
	Remove(name string) error
	// Exists reports whether name exists.
	Exists(name string) (bool, error)
	// ListDir returns the full paths of the files in dir (no recursion,
	// no ordering guarantee). Startup housekeeping uses it to sweep
	// orphaned temp and superseded side files a crash left behind.
	ListDir(dir string) ([]string, error)
}

// VFile is an open file of a VFS. Implementations need not be safe for
// concurrent use beyond what the WAL requires: concurrent WriteAt to
// disjoint ranges; Sync concurrent with WriteAt, with another Sync, and
// with Truncate (a checkpoint truncates the log while a group-commit
// leader may still be inside its fsync).
type VFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	// Size returns the file's current length.
	Size() (int64, error)
	// Truncate resizes the file to size bytes.
	Truncate(size int64) error
	// Sync makes all written data durable.
	Sync() error
	// Writeback asks the device to start writing the n bytes at off and
	// returns without waiting for them, so a later Sync finds them on
	// their way. It is a hint: it makes nothing durable, and an
	// implementation may do nothing.
	Writeback(off, n int64) error
	Close() error
}

// OSFS is the production VFS, backed by the operating system.
type OSFS struct{}

// OpenFile implements VFS. Creating a file fsyncs the parent directory:
// on POSIX the new directory entry is otherwise not durable, and a WAL
// whose *file* could vanish in a power cut would void every durability
// acknowledgment made through it.
func (OSFS) OpenFile(name string) (VFile, error) {
	_, statErr := os.Stat(name)
	creating := os.IsNotExist(statErr)
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if creating {
		if err := syncDir(filepath.Dir(name)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return osFile{f}, nil
}

// syncDir fsyncs a directory, making entry changes (creates, renames)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("store: sync dir: %w", serr)
	}
	return cerr
}

// ReadFile implements VFS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements VFS. The parent directory is fsynced afterwards: the
// VFS contract promises the rename is durable on return (checkpoint
// commit points depend on it), and on POSIX a rename lives in the
// directory, not the file.
func (OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	return syncDir(filepath.Dir(newname))
}

// Remove implements VFS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// ListDir implements VFS.
func (OSFS) ListDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	return names, nil
}

// Exists implements VFS.
func (OSFS) Exists(name string) (bool, error) {
	_, err := os.Stat(name)
	switch {
	case err == nil:
		return true, nil
	case os.IsNotExist(err):
		return false, nil
	default:
		return false, err
	}
}

// osFile adapts *os.File to VFile.
type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Close() error                             { return o.f.Close() }

func (o osFile) Size() (int64, error) {
	info, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// notExistError builds a VFS not-found error for in-memory implementations.
func notExistError(name string) error {
	return fmt.Errorf("store: %s: %w", name, fs.ErrNotExist)
}

// WriteFileAtomic durably replaces path with data: the bytes are written
// to path+".tmp", truncated to length (the temp file may be a longer
// leftover from an interrupted attempt), fsynced, and renamed over path.
// A crash at any point leaves either the old file or the new one, never a
// torn mix — the write-temp/fsync/rename pattern checkpoint side files
// are published with.
func WriteFileAtomic(vfs VFS, path string, data []byte) error {
	if err := StageFile(vfs, path, data); err != nil {
		return err
	}
	return CommitStagedFile(vfs, path)
}

// StageFile durably writes data to path+".tmp" without publishing it: the
// staged bytes are written, truncated to length, and fsynced, but path
// itself is untouched. CommitStagedFile publishes the staged content with
// a single rename. Splitting the two lets a checkpoint pay the content
// fsyncs in its lock-free build phase and keep only the rename — the
// commit point — inside its publish critical section.
func StageFile(vfs VFS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := vfs.OpenFile(tmp)
	if err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Truncate(int64(len(data))); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	return nil
}

// CommitStagedFile atomically replaces path with the content StageFile
// staged at path+".tmp". The rename is durable on return (VFS contract).
func CommitStagedFile(vfs VFS, path string) error {
	if err := vfs.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	return nil
}
