package mem_test

import (
	"slices"
	"testing"

	"repro/internal/bus"
)

// wordStore is a map-backed mem.Storage.
type wordStore map[uint32]uint32

func (w wordStore) Read(addr uint32) uint32     { return w[addr] }
func (w wordStore) Write(addr uint32, v uint32) { w[addr] = v }
func (w wordStore) BankID() int                 { return 0 }

// TestAdaptersAppendToOut pins the one rule the bank relies on: Handle
// appends its responses to out and keeps neither out nor the result.
// Each built-in adapter runs every class stream with out pre-filled by
// a sentinel; the sentinel must stay first and the tail must equal what
// a twin adapter returns for the same request with a nil out. The
// returned slice is then overwritten, as the bank's next request does,
// so an adapter that kept it drifts from its twin.
func TestAdaptersAppendToOut(t *testing.T) {
	sentinel := bus.Request{Op: bus.Load, Addr: 0xfc, Src: 15}.Reply(0xdead, true)
	for _, kind := range builtins {
		t.Run(string(kind), func(t *testing.T) {
			a, twin := newAdapter(t, kind), newAdapter(t, kind)
			s, twinS := wordStore{}, wordStore{}
			buf := make([]bus.Response, 0, 8)
			for _, cs := range classStreams {
				for _, req := range cs.reqs {
					want := twin.Handle(req, twinS, nil)
					got := a.Handle(req, s, append(buf[:0], sentinel))
					if len(got) == 0 || got[0] != sentinel {
						t.Fatalf("%s %v: sentinel lost: %v", cs.name, req.Op, got)
					}
					if !slices.Equal(got[1:], want) {
						t.Fatalf("%s %v: appended %v, twin returned %v", cs.name, req.Op, got[1:], want)
					}
					for i := range got {
						got[i] = bus.Response{Dst: -1}
					}
				}
			}
		})
	}
}
