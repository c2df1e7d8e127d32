package sweep

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestCacheGetFIFOIsMiss: a FIFO at an entry path reads as a miss at
// once, whether or not a writer holds it open. A blocking open would
// wait for a writer, and a blocking read for data, so a serve request
// for that key would never return.
func TestCacheGetFIFOIsMiss(t *testing.T) {
	c := newCache(t.TempDir())
	const key = "fifo-key"
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	missWithin2s(t, c, key, "a FIFO without a writer")

	// O_RDWR opens a FIFO without waiting and holds a writer end, so
	// an empty read would wait for data rather than see EOF.
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	missWithin2s(t, c, key, "a FIFO with a writer")
}

// TestCacheGetCharDeviceIsMiss: a character device at an entry path
// reads as a miss. /dev/zero fills every read, so only the bound on an
// entry's size (MaxEntryBytes) ends the read.
func TestCacheGetCharDeviceIsMiss(t *testing.T) {
	c := newCache(t.TempDir())
	const key = "chardev-key"
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/zero", path); err != nil {
		t.Skipf("symlink: %v", err)
	}
	missWithin2s(t, c, key, "/dev/zero")
}

// missWithin2s fails the test unless Get(key) returns a miss within
// two seconds.
func missWithin2s(t *testing.T, c *Cache, key, what string) {
	t.Helper()
	done := make(chan bool, 1)
	go func() {
		_, ok := c.Get(key)
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatalf("Get hit on %s", what)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Get on %s did not return within 2s", what)
	}
}
