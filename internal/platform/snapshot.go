package platform

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/engine"
	"repro/internal/mem"
)

// Activity is a cumulative activity snapshot across the whole system; the
// energy model and the benchmark harness work on deltas of two snapshots.
type Activity struct {
	Cycle engine.Cycle

	// Per-core completed benchmark operations (MARK instructions).
	OpsPerCore []uint64
	TotalOps   uint64

	Instrs           uint64
	BusyCycles       uint64
	MemWaitCycles    uint64
	SleepCycles      uint64
	PauseCycles      uint64
	IssueStallCycles uint64
	HaltedCycles     uint64

	SCSuccess    uint64
	SCFail       uint64
	WaitRefusals uint64

	// Deliveries counts memory responses delivered to cores. Safe for
	// kernel parity: both cycle loops reach cpu.Core.Deliver identically
	// (scheduler-only effects like parks live in KernelStats instead).
	Deliveries uint64

	// Fabric hop traversals and bank activations.
	Flits         uint64
	BankAccesses  uint64
	BankWrites    uint64
	BankResponses uint64

	// Protocol traffic (Colibri).
	SuccUpdates uint64
	WakeUps     uint64
}

// counters is the system's one cumulative counter record: Activity plus
// the counters that sit beside it — the scheduler's own accounting, the
// wake heap and the adapters' policy events. walk fills it from
// activity (which Snapshot returns) and PolicyStats, and PublishObs
// diffs it, so a new counter is declared here (or in Activity), summed
// once in walk, activity or PolicyStats and published by at most one
// publishTable row. The extra counters stay
// out of Activity: its fields are hashed by the benchmark's Activity
// digest and compared whole by the parity tests.
type counters struct {
	Activity
	Kernel     KernelStats
	HeapPushes uint64
	HeapPops   uint64
	Policy     mem.AdapterStats
}

// walk reads every component counter into one record: the activity
// (see activity), the scheduler's and wake heap's counters and the
// adapters' policy counters.
func (s *System) walk() counters {
	a := s.activity()
	return counters{
		Activity:   a,
		Kernel:     s.Kernel,
		HeapPushes: s.slots.HeapPushes,
		HeapPops:   s.slots.HeapPops,
		Policy:     s.PolicyStats(),
	}
}

// activity sums the core, Qnode, fabric and bank counters. Parked cores'
// lazily-accounted wait counters are reconciled first, so the record is
// cycle-exact no matter how much of the run was fast-forwarded.
func (s *System) activity() Activity {
	s.SyncStats()
	a := Activity{Cycle: s.Clock.Now(), OpsPerCore: make([]uint64, len(s.Cores))}
	for i, core := range s.Cores {
		st := core.Stats
		a.OpsPerCore[i] = st.Ops
		a.TotalOps += st.Ops
		a.Instrs += st.Instrs
		a.BusyCycles += st.BusyCycles
		a.MemWaitCycles += st.MemWaitCycles
		a.SleepCycles += st.SleepCycles
		a.PauseCycles += st.PauseCycles
		a.IssueStallCycles += st.IssueStallCycles
		a.HaltedCycles += st.HaltedCycles
		a.SCSuccess += st.SCSuccess
		a.SCFail += st.SCFail
		a.WaitRefusals += st.WaitRefusals
		a.Deliveries += st.Deliveries
	}
	for _, n := range s.Qnodes {
		a.SuccUpdates += n.Stats.SuccUpdates
		a.WakeUps += n.Stats.WakeUpsSent
	}
	a.Flits = s.Fabric.Flits()
	for _, b := range s.Banks {
		a.BankAccesses += b.Stats.Accesses
		a.BankWrites += b.Stats.Writes
		a.BankResponses += b.Stats.Responses
	}
	return a
}

// Snapshot captures the current cumulative activity, cycle-exact (see
// activity).
func (s *System) Snapshot() Activity { return s.activity() }

// Delta returns the activity between two snapshots (b - a).
func Delta(a, b Activity) Activity { return diff(a, b) }

// diff returns b - a for Activity or the counter record, field by field.
func diff[T any](a, b T) T {
	var d T
	subtract(reflect.ValueOf(&d).Elem(), reflect.ValueOf(a), reflect.ValueOf(b))
	return d
}

// subtract sets d = b - a through every counter field: uint64 and int64
// (engine.Cycle) values, structs field by field, and []uint64 element by
// element (d takes b's length; an element a lacks reads as zero, so the
// zero record subtracts cleanly). Any other kind or slice element type
// panics, so a counter of a new type cannot be skipped and read as a
// silent zero.
func subtract(d, a, b reflect.Value) {
	switch d.Kind() {
	case reflect.Uint64:
		d.SetUint(b.Uint() - a.Uint())
	case reflect.Int64:
		d.SetInt(b.Int() - a.Int())
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			subtract(d.Field(i), a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		// OpsPerCore is the one slice counter: a plain loop, not a
		// reflective visit per core.
		bs, ok := b.Interface().([]uint64)
		if !ok {
			panic(fmt.Sprintf("platform: counter field of type %v", d.Type()))
		}
		as := a.Interface().([]uint64)
		ds := make([]uint64, len(bs))
		for i, v := range bs {
			if i < len(as) {
				v -= as[i]
			}
			ds[i] = v
		}
		d.Set(reflect.ValueOf(ds))
	default:
		panic(fmt.Sprintf("platform: counter field of kind %v", d.Kind()))
	}
}

// Throughput returns completed operations per cycle in this activity window.
func (a Activity) Throughput() float64 {
	if a.Cycle == 0 {
		return 0
	}
	return float64(a.TotalOps) / float64(a.Cycle)
}

// MinMaxOps returns the slowest and fastest per-core operation counts.
func (a Activity) MinMaxOps() (min, max uint64) {
	if len(a.OpsPerCore) == 0 {
		return 0, 0
	}
	return slices.Min(a.OpsPerCore), slices.Max(a.OpsPerCore)
}

// Band returns the slowest and fastest per-core rates, in operations
// per cycle, among the first n >= 1 cores (Fig. 6's fairness band);
// both are 0 for an empty window.
func (a Activity) Band(n int) (min, max float64) {
	if a.Cycle == 0 {
		return 0, 0
	}
	ops := a.OpsPerCore[:n]
	return float64(slices.Min(ops)) / float64(a.Cycle), float64(slices.Max(ops)) / float64(a.Cycle)
}

// Measure runs warmup cycles, then measures for measure cycles, returning
// the activity delta of the measurement window.
func (s *System) Measure(warmup, measure int) Activity {
	s.Run(warmup)
	before := s.Snapshot()
	s.Run(measure)
	return Delta(before, s.Snapshot())
}

// PolicyStats sums the adapter statistics across all banks, for every
// adapter — built-in or custom — that reports through mem.StatsReporter
// (adapters that don't count as zero).
func (s *System) PolicyStats() mem.AdapterStats {
	var p mem.AdapterStats
	for _, sr := range s.reporters {
		st := sr.AdapterStats()
		p.Grants += st.Grants
		p.Refused += st.Refused
		p.SCSuccess += st.SCSuccess
		p.SCFail += st.SCFail
		p.Invalidations += st.Invalidations
	}
	return p
}

// Layout is a bump allocator for the shared word-interleaved address
// space, used by kernels to place their data sections.
type Layout struct{ nextWord uint32 }

// NewLayout starts allocating at startWord.
func NewLayout(startWord uint32) *Layout { return &Layout{nextWord: startWord} }

// Words reserves n consecutive words and returns their base byte address.
// Consecutive words land in consecutive banks (word interleaving).
func (l *Layout) Words(n int) uint32 {
	addr := l.nextWord * 4
	l.nextWord += uint32(n)
	return addr
}

// AlignWords rounds the next allocation up to a multiple of n words.
func (l *Layout) AlignWords(n uint32) {
	if n == 0 {
		return
	}
	l.nextWord = (l.nextWord + n - 1) / n * n
}

// UsedWords returns the number of words allocated so far.
func (l *Layout) UsedWords() int { return int(l.nextWord) }
