//go:build !unix && !wasm

package sweep

import "syscall"

// openNonblock is the flag that keeps readFile's open of a FIFO from
// waiting for a writer.
const openNonblock = syscall.O_NONBLOCK
