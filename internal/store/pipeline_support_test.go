package store

import (
	"sync"
	"testing"
)

// Unit tests for the primitives the phased checkpoint pipeline leans on:
// incremental buffer flushing (DirtyPages/FlushPages) and deferred page
// reclamation (FileDisk.DeferFrees).

func TestBufferFlushPages(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 8)
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data()[0] = byte(i + 1)
		ids = append(ids, p.ID())
		if err := bp.Unpin(p.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	dirty := bp.DirtyPages()
	if len(dirty) != 3 {
		t.Fatalf("DirtyPages = %v, want 3 ids", dirty)
	}
	n, err := bp.FlushPages(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("flushed %d pages, want 3", n)
	}
	// Idempotent: nothing left dirty, including ids that were never dirty
	// or are no longer resident.
	n, err = bp.FlushPages(append(dirty, PageID(999)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second flush wrote %d pages, want 0", n)
	}
	var buf [PageSize]byte
	for i, id := range ids {
		if err := disk.Read(id, buf[:]); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d byte = %d, want %d", id, buf[0], i+1)
		}
	}
}

// TestBufferFlushPagesConcurrent runs FlushPages while other goroutines
// fetch and allocate — the flush-safety contract, exercised under -race.
func TestBufferFlushPagesConcurrent(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 16)
	var ids []PageID
	for i := 0; i < 12; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data()[0] = byte(i)
		ids = append(ids, p.ID())
		if err := bp.Unpin(p.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	dirty := bp.DirtyPages()
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[i%len(ids)]
				p, err := bp.Fetch(id)
				if err != nil {
					errCh <- err
					return
				}
				_ = p.Data()[0]
				if err := bp.Unpin(id, false); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := bp.FlushPages(dirty); err != nil {
			errCh <- err
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestFileDiskDeferFrees(t *testing.T) {
	fs := NewCrashFS()
	d, err := OpenFileDiskOn(fs, "d.idx")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d.DeferFrees(true)
	if err := d.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := d.PendingList(); len(got) != 1 || got[0] != ids[1] {
		t.Fatalf("PendingList = %v, want [%d]", got, ids[1])
	}
	if got := d.FreeList(); len(got) != 0 {
		t.Fatalf("FreeList = %v, want empty while deferred", got)
	}
	// A parked page must not be reallocated: the next Allocate extends.
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == ids[1] {
		t.Fatalf("parked page %d was reallocated mid-defer", id)
	}
	d.FlushPending()
	d.DeferFrees(false)
	if got := d.FreeList(); len(got) != 1 || got[0] != ids[1] {
		t.Fatalf("FreeList after flush = %v, want [%d]", got, ids[1])
	}
	id, err = d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[1] {
		t.Fatalf("Allocate after flush = %d, want recycled %d", id, ids[1])
	}
}

func TestListDir(t *testing.T) {
	fs := NewCrashFS()
	for _, name := range []string{"a.idx", "a.idx.meta", "a.idx.policies.3"} {
		f, err := fs.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	names, err := fs.ListDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("ListDir = %v, want 3 names", names)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"a.idx", "a.idx.meta", "a.idx.policies.3"} {
		if !seen[want] {
			t.Fatalf("ListDir missing %s (got %v)", want, names)
		}
	}
}
