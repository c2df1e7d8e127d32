//go:build unix

package sweep

import "syscall"

// readFile reads the entry at path into *buf and returns the bytes
// read: one open, one read into the pooled buffer and one close, with
// no os.File, so no poller registration and no finalizer. The open is
// non-blocking, so a FIFO at the path blocks neither the open nor the
// read (with no writer the read is EOF, with one but no data EAGAIN);
// a directory fails the read with EISDIR. An entry larger than the
// buffer grows it, and one over MaxEntryBytes (a character device,
// say) is an error.
func readFile(path string, buf *[]byte) ([]byte, error) {
	const flags = syscall.O_RDONLY | syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, err := syscall.Open(path, flags, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, flags, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	b := *buf
	n := 0
	for {
		m, err := syscall.Read(fd, b[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		n += m
		if m == 0 || n < len(b) {
			*buf = b
			return b[:n], nil
		}
		if b, err = growEntry(b); err != nil {
			return nil, err
		}
	}
}
