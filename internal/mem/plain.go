package mem

import "repro/internal/bus"

// HandleBasic implements the semantics shared by every adapter: Load,
// Store and the AMOs. It reports whether it handled the request and
// whether memory was written (so policy adapters can run their reservation
// invalidation / monitor hooks).
func HandleBasic(req bus.Request, s Storage) (resp bus.Response, wrote, handled bool) {
	switch {
	case req.Op == bus.Load:
		return req.Reply(s.Read(req.Addr), true), false, true
	case req.Op == bus.Store:
		s.Write(req.Addr, req.Data)
		return req.Reply(0, true), true, true
	case req.Op.IsAMO():
		old := s.Read(req.Addr)
		s.Write(req.Addr, AmoALU(req.Op, old, req.Data))
		return req.Reply(old, true), true, true
	}
	return bus.Response{}, false, false
}

// PlainAdapter supports only the basic operations. LR reads without placing
// a reservation so a following SC always fails; LRwait/Mwait respond
// immediately with the value but OK=false (refused), matching the software
// contract that a refused reservation is discovered by the failing
// SC/SCwait. It exists as the no-synchronization baseline and for tests.
type PlainAdapter struct{}

// Handle implements Adapter.
func (PlainAdapter) Handle(req bus.Request, s Storage, out []bus.Response) []bus.Response {
	if resp, _, ok := HandleBasic(req, s); ok {
		return append(out, resp)
	}
	if req.Op.IsWakeUp() {
		return out // no queues to wake
	}
	switch req.Op {
	case bus.LR, bus.LRWait, bus.MWait:
		return append(out, req.Reply(s.Read(req.Addr), false))
	case bus.SC, bus.SCWait:
		return append(out, req.Reply(0, false))
	}
	return append(out, req.Reply(0, false))
}
