package bus

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestOpPredicates(t *testing.T) {
	amos := []Op{AmoAdd, AmoSwap, AmoAnd, AmoOr, AmoXor, AmoMin, AmoMax, AmoMinU, AmoMaxU}
	for _, op := range amos {
		if !op.IsAMO() {
			t.Errorf("%v.IsAMO() = false", op)
		}
		if !op.Writes() {
			t.Errorf("%v.Writes() = false", op)
		}
	}
	for _, op := range []Op{Load, LR, LRWait, MWait, WakeUpReq, WakeUpMWait} {
		if op.IsAMO() {
			t.Errorf("%v.IsAMO() = true", op)
		}
		if op.Writes() {
			t.Errorf("%v.Writes() = true", op)
		}
	}
	for _, op := range []Op{Store, SC, SCWait} {
		if !op.Writes() {
			t.Errorf("%v.Writes() = false", op)
		}
	}
	for op := Nop; op <= WakeUpMWait; op++ {
		if want := op == WakeUpReq || op == WakeUpMWait; op.IsWakeUp() != want {
			t.Errorf("%v.IsWakeUp() = %v", op, !want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		Load: "lw", Store: "sw", AmoAdd: "amoadd", LR: "lr", SC: "sc",
		LRWait: "lrwait", SCWait: "scwait", MWait: "mwait", WakeUpReq: "wakeupreq",
		WakeUpMWait: "wakeupmwait",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestMessageStrings(t *testing.T) {
	r := Request{Op: LRWait, Addr: 0x40, Src: 3}
	if s := r.String(); !strings.Contains(s, "lrwait") || !strings.Contains(s, "core3") {
		t.Errorf("request string = %q", s)
	}
	resp := SuccessorUpdate(3, Request{Op: LRWait, Src: 5})
	if s := resp.String(); !strings.Contains(s, "succ-update") {
		t.Errorf("response string = %q", s)
	}
}

// TestMessagesFitRegisters guards the message layout. Go keeps a struct
// in registers (SSA) only while it is at most 32 bytes with at most four
// fields at every nesting level; the fabric's FIFO entry adds an 8-byte
// stamp, so a message may use 24. Past the limit every FIFO push, peek
// and pop copies the message through the stack: a push+pop measured
// about 3x slower (33–36 ns against 11–12 ns for the same 24 bytes in
// four fields), which cost terapool-colibri a quarter of its simulated
// cycles/s. A new per-message field must fit inside this budget.
func TestMessagesFitRegisters(t *testing.T) {
	const maxBytes, maxFields = 24, 4
	for _, c := range []struct {
		v    any
		size uintptr
	}{{Request{}, unsafe.Sizeof(Request{})}, {Response{}, unsafe.Sizeof(Response{})}} {
		typ := reflect.TypeOf(c.v)
		if c.size > maxBytes {
			t.Errorf("%v is %d bytes, over %d: with the FIFO's 8-byte stamp it leaves "+
				"Go's 32-byte SSA limit, and every FIFO push+pop gets ~3x slower",
				typ, c.size, maxBytes)
		}
		checkFields(t, typ, maxFields)
	}
}

// checkFields fails if typ or any struct nested in it has more than
// max fields.
func checkFields(t *testing.T, typ reflect.Type, max int) {
	t.Helper()
	if typ.Kind() != reflect.Struct {
		return
	}
	if typ.NumField() > max {
		t.Errorf("%v has %d fields, over %d: Go keeps a struct in registers (SSA) only "+
			"with at most %d fields per level, and every FIFO push+pop gets ~3x slower",
			typ, typ.NumField(), max, max)
	}
	for i := 0; i < typ.NumField(); i++ {
		checkFields(t, typ.Field(i).Type, max)
	}
}

func TestColibriPayloadRoundTrips(t *testing.T) {
	for _, w := range []Request{
		{Op: LRWait, Addr: 0x40, Src: 7},
		{Op: MWait, Addr: 0x44, Data: 0xdeadbeef, Src: 1023},
	} {
		su := SuccessorUpdate(3, w)
		if su.Kind != RespSuccUpdate || su.Dst != 3 || su.Addr != w.Addr {
			t.Errorf("SuccessorUpdate(3, %v) = %v", w, su)
		}
		if got := su.Waiter(); got != w {
			t.Errorf("SuccessorUpdate waiter = %v, want %v", got, w)
		}
		wu := WakeUp(w)
		if !wu.Op.IsWakeUp() || wu.Addr != w.Addr {
			t.Errorf("WakeUp(%v) = %v", w, wu)
		}
		if got := wu.Waiter(); got != w {
			t.Errorf("WakeUp waiter = %v, want %v", got, w)
		}
	}
	req := Request{Op: AmoAdd, Addr: 0x80, Data: 1, Src: 5}
	r := req.Reply(9, true)
	if r.Kind != RespNormal || r.Dst != 5 || r.Op != AmoAdd || r.Addr != 0x80 || r.Data != 9 || !r.OK {
		t.Errorf("Reply = %+v", r)
	}
}
