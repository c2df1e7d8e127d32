//go:build !unix

package sweep

import (
	"io"
	"os"
	"syscall"
	"time"
)

// pastDeadline is any time already gone: a read deadline there fails a
// read on a pollable file (a FIFO) at once.
var pastDeadline = time.Unix(1, 0)

// readFile reads the file at path into *buf, growing it as needed up
// to MaxEntryBytes, and returns the bytes read. The open is
// non-blocking, so a FIFO at the path neither blocks the open nor,
// with its read deadline already past, the read; a directory fails the
// read. A regular file takes one open, one read and one close unless
// it outgrows the buffer.
func readFile(path string, buf *[]byte) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Regular files do not take deadlines (os.ErrNoDeadline); only a
	// pollable file, which no Put writes, is cut off here.
	f.SetReadDeadline(pastDeadline)
	b := *buf
	n := 0
	for {
		m, err := f.Read(b[n:])
		n += m
		if err == io.EOF || (err == nil && n < len(b)) {
			*buf = b
			return b[:n], nil
		}
		if err != nil {
			return nil, err
		}
		if b, err = growEntry(b); err != nil {
			return nil, err
		}
	}
}
