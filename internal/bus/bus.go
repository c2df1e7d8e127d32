// Package bus defines the memory-transaction messages exchanged between
// cores, the interconnect, and the memory banks, including the custom
// LRwait/SCwait/Mwait operations and Colibri's internal protocol messages
// (SuccessorUpdate, WakeUpRequest).
//
// A Request travels on the request network from a core (through its Qnode)
// to a memory bank. A Response travels on the response network from a bank
// back to a core. Colibri's SuccessorUpdate is a Response-network message
// addressed to a Qnode; its WakeUpRequest is a Request-network message
// addressed to a bank controller.
//
// Both message types are 24 bytes in at most four fields per struct, so
// the compiler keeps them in registers: every FIFO push, peek and pop in
// the fabric moves one, and a larger layout makes each of those copy it
// through the stack at about three times the cost (TestMessagesFitRegisters
// guards the limit). Colibri's payload therefore rides in the ordinary
// fields; SuccessorUpdate, WakeUp and the two Waiter accessors are the
// only code that knows the encoding, and Request.Reply is the only way
// an adapter builds a response.
package bus

import "fmt"

// Op enumerates memory operations. The numeric values are stable and are
// used by the ISA encoder.
type Op uint8

const (
	// Nop is the zero Op; it is never sent on the network.
	Nop Op = iota
	// Load is a word load.
	Load
	// Store is a word store.
	Store
	// AmoAdd through AmoMaxU are single-round-trip atomic
	// read-modify-write operations executed by the bank's AMO ALU.
	AmoAdd
	AmoSwap
	AmoAnd
	AmoOr
	AmoXor
	AmoMin
	AmoMax
	AmoMinU
	AmoMaxU
	// LR and SC are the standard RISC-V load-reserved and
	// store-conditional operations.
	LR
	SC
	// LRWait and SCWait are the paper's polling-free pair: the LRWait
	// response is withheld by the memory controller until the issuing
	// core is at the head of the reservation queue for the address.
	LRWait
	SCWait
	// MWait monitors an address: the response is withheld until the
	// memory value differs from the expected value carried in Data.
	MWait
	// WakeUpReq and WakeUpMWait are Colibri-internal: sent by a Qnode
	// to the bank controller to promote the successor to the head of
	// the queue. WakeUpReq promotes a successor waiting with LRWait,
	// WakeUpMWait one waiting with MWait (see WakeUp).
	WakeUpReq
	WakeUpMWait
)

var opNames = [...]string{
	Nop: "nop", Load: "lw", Store: "sw",
	AmoAdd: "amoadd", AmoSwap: "amoswap", AmoAnd: "amoand", AmoOr: "amoor",
	AmoXor: "amoxor", AmoMin: "amomin", AmoMax: "amomax", AmoMinU: "amominu",
	AmoMaxU: "amomaxu",
	LR:      "lr", SC: "sc", LRWait: "lrwait", SCWait: "scwait", MWait: "mwait",
	WakeUpReq: "wakeupreq", WakeUpMWait: "wakeupmwait",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsAMO reports whether o is a single-round-trip atomic RMW operation.
func (o Op) IsAMO() bool { return o >= AmoAdd && o <= AmoMaxU }

// IsWakeUp reports whether o is a Colibri WakeUpRequest. Adapters
// without queues drop them.
func (o Op) IsWakeUp() bool { return o == WakeUpReq || o == WakeUpMWait }

// Writes reports whether o can modify memory when it succeeds.
func (o Op) Writes() bool {
	return o == Store || o.IsAMO() || o == SC || o == SCWait
}

// Request is a core-to-memory message.
type Request struct {
	Op   Op
	Addr uint32
	// Data is the store/AMO operand, or the expected value for MWait.
	Data uint32
	// Src is the issuing core ID; responses are routed back to it.
	Src int
}

// Reply returns the response to r: addressed to its issuing core,
// echoing its operation and address, with the given data and success
// flag.
func (r Request) Reply(data uint32, ok bool) Response {
	return Response{Dst: r.Src, Addr: r.Addr, Data: data, status: status{Op: r.Op, OK: ok}}
}

// WakeUp returns the WakeUpRequest that promotes waiter — a queued
// LRWait or MWait — to the head of its queue. It carries the waiter
// whole, so the controller serves it without another round trip: Src
// names the successor (no handler reads a wake-up's sender), Data holds
// MWait's expected value and the opcode records which wait it was.
func WakeUp(waiter Request) Request {
	op := WakeUpReq
	if waiter.Op == MWait {
		op = WakeUpMWait
	}
	return Request{Op: op, Addr: waiter.Addr, Data: waiter.Data, Src: waiter.Src}
}

// Waiter returns the queued request a WakeUpRequest promotes (the
// inverse of WakeUp).
func (r Request) Waiter() Request {
	op := LRWait
	if r.Op == WakeUpMWait {
		op = MWait
	}
	return Request{Op: op, Addr: r.Addr, Data: r.Data, Src: r.Src}
}

// RespKind distinguishes ordinary memory responses from Colibri's
// Qnode-directed protocol messages.
type RespKind uint8

const (
	// RespNormal is a reply to a core's memory request.
	RespNormal RespKind = iota
	// RespSuccUpdate is Colibri's SuccessorUpdate: it writes the
	// successor link into the destination core's Qnode and is consumed
	// there; the core itself never observes it.
	RespSuccUpdate
)

// Response is a memory-to-core message. Build one with Request.Reply
// or SuccessorUpdate.
type Response struct {
	// Dst is the core (or its Qnode) the message is addressed to.
	Dst int
	// Addr echoes the request address (used by Qnodes and tracing).
	Addr uint32
	Data uint32
	status
}

// status is a Response's 8-byte tail, grouped so the message keeps four
// top-level fields.
type status struct {
	Kind RespKind
	Op   Op
	// OK is the success flag: true for a granted LR/LRwait/Mwait or a
	// successful SC/SCwait; false for a failed SC/SCwait or an LRwait/
	// Mwait that was refused because the controller had no free queue.
	OK bool
	// succ is a SuccessorUpdate's successor core.
	succ int32
}

// SuccessorUpdate returns the SuccessorUpdate telling pred's Qnode that
// waiter queued directly behind it. The update carries the waiter whole
// (Op, Data and the successor in the kind-specific tail), so the
// WakeUpRequest pred eventually sends can serve it directly.
func SuccessorUpdate(pred int, waiter Request) Response {
	return Response{Dst: pred, Addr: waiter.Addr, Data: waiter.Data,
		status: status{Kind: RespSuccUpdate, Op: waiter.Op, succ: int32(waiter.Src)}}
}

// Waiter returns the queued request a SuccessorUpdate links in (the
// inverse of SuccessorUpdate).
func (r Response) Waiter() Request {
	return Request{Op: r.Op, Addr: r.Addr, Data: r.Data, Src: int(r.succ)}
}

func (r Request) String() string {
	return fmt.Sprintf("%s core%d addr=%#x data=%#x", r.Op, r.Src, r.Addr, r.Data)
}

func (r Response) String() string {
	k := ""
	if r.Kind == RespSuccUpdate {
		k = " succ-update"
	}
	return fmt.Sprintf("%s->core%d%s data=%#x ok=%v", r.Op, r.Dst, k, r.Data, r.OK)
}
