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
	get := func(what string) {
		t.Helper()
		done := make(chan bool, 1)
		go func() {
			_, ok := c.Get(key)
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				t.Fatalf("Get hit on a FIFO %s", what)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Get on a FIFO %s did not return within 2s", what)
		}
	}
	get("without a writer")

	// O_RDWR opens a FIFO without waiting and holds a writer end, so
	// an empty read would wait for data rather than see EOF.
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	get("with a writer")
}
