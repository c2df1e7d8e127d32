//go:build wasm

package sweep

// openNonblock is 0: js/wasm and wasip1/wasm define no O_NONBLOCK. A
// FIFO at an entry path can therefore block a Get's open or read
// there; no Put writes one.
const openNonblock = 0
