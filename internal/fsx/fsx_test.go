package fsx

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// assertNoTemp fails if any temp file of path's writes remains.
func assertNoTemp(t *testing.T, path string) {
	t.Helper()
	left, err := filepath.Glob(path + ".tmp*")
	if err != nil || len(left) != 0 {
		t.Fatalf("temp files left behind: %v, %v", left, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := WriteFileAtomic(path, []byte("one"), nil); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "one" {
		t.Fatalf("read back %q, %v; want %q", got, err, "one")
	}
	assertNoTemp(t, path)

	// Overwrite is atomic: the new content fully replaces the old.
	if err := WriteFileAtomic(path, []byte("two — longer content"), nil); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "two — longer content" {
		t.Fatalf("after overwrite read %q", got)
	}
}

func TestWriteFileAtomicWithDirHandle(t *testing.T) {
	dir := t.TempDir()
	d, err := os.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	path := filepath.Join(dir, "ck.json")
	if err := WriteFileAtomic(path, []byte("snap"), d); err != nil {
		t.Fatalf("WriteFileAtomic with dir handle: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "snap" {
		t.Fatalf("read back %q", got)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), nil)
	if err == nil {
		t.Fatal("want error writing into a missing directory")
	}
}

// TestWriteFileAtomicConcurrentWriters: writers racing on one path (a
// failed-over shard's old and new owner checkpointing the same file)
// each succeed, the file ends up holding exactly one writer's payload
// byte for byte, and no temp file is left behind.
func TestWriteFileAtomicConcurrentWriters(t *testing.T) {
	const writers, rounds = 8, 25
	path := filepath.Join(t.TempDir(), "shard-0.ckpt")
	payloads := make([][]byte, writers)
	for w := range payloads {
		payloads[w] = bytes.Repeat([]byte(fmt.Sprintf("writer %d;", w)), 200*(w+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				errs <- WriteFileAtomic(path, payloads[w], nil)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent WriteFileAtomic: %v", err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for _, p := range payloads {
		whole = whole || bytes.Equal(got, p)
	}
	if !whole {
		t.Fatalf("final file (%d bytes) is no writer's payload: a torn or mixed write", len(got))
	}
	assertNoTemp(t, path)
}
