package platform

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bus"
	"repro/internal/colibri"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/reserve"
)

// PolicyKind names a registered synchronization policy — the key under
// which a Policy is registered (RegisterPolicy) and selected
// (Config.Policy, the cmd -policy flags, the sweep policy grid axis).
type PolicyKind string

// The built-in policy kinds. Any name returned by PolicyNames — built-in
// or registered by a library user — is equally valid.
const (
	// PolicyPlain: no reservation support (baseline / AMO-only runs).
	PolicyPlain PolicyKind = "plain"
	// PolicyLRSCSingle: MemPool's single reservation slot per bank.
	PolicyLRSCSingle PolicyKind = "lrsc"
	// PolicyLRSCTable: ATUN-style per-core reservation table.
	PolicyLRSCTable PolicyKind = "lrsc-table"
	// PolicyWaitQueue: LRSCwait_q hardware queue (PolicyParams.QueueCap
	// slots; 0 means ideal = one per core).
	PolicyWaitQueue PolicyKind = "lrscwait"
	// PolicyColibri: the distributed queue (PolicyParams.ColibriQueues
	// head/tail pairs per bank controller).
	PolicyColibri PolicyKind = "colibri"
)

// DefaultColibriQueues is the head/tail pair count a zero
// PolicyParams.ColibriQueues selects (the paper's Colibri configuration).
const DefaultColibriQueues = 4

// PolicyParams configures one policy instance: the two parameters the
// paper varies. A policy reads the fields that apply to it and ignores
// the rest, so one value can configure every policy of a mixed-curve
// sweep. The zero value selects every default.
type PolicyParams struct {
	// QueueCap is the lrscwait slot count per bank (0 = ideal, one per
	// core).
	QueueCap int
	// ColibriQueues is the colibri head/tail pair count per bank
	// controller (0 = DefaultColibriQueues).
	ColibriQueues int
}

// BankContext is what a Policy sees of the machine when instantiating
// one bank's adapter.
type BankContext struct {
	// BankID and NumBanks identify the bank within the machine.
	BankID, NumBanks int
	// NumCores is the machine's core count; per-core reservation
	// structures (tables, ideal queues) size from it.
	NumCores int
	// Topo is the full topology, for adapters that care about placement.
	Topo noc.Topology
}

// Policy describes one synchronization-primitive family: how its name
// and parameters resolve into a configured instance, and how that
// instance equips every memory bank with an adapter. Implementations
// registered with RegisterPolicy (or the lrscwait.RegisterPolicy facade)
// are addressable from Config.Policy, the cmd -policy flags, and the
// sweep engine's policy grid axis exactly like the built-in kinds.
//
// A policy may additionally implement the energy.PolicyWeights and
// area.PolicyRows extension interfaces to supply its own calibrated
// energy constants and Table I area rows.
type Policy interface {
	// Name is the registry key.
	Name() string

	// Normalize returns a fully configured instance of the policy for
	// the given parameters on topo, validating the fields it reads and
	// ignoring the others. The receiver is the registered prototype and
	// must not be mutated.
	Normalize(params PolicyParams, topo noc.Topology) (Policy, error)

	// NewAdapter instantiates this instance's adapter for one bank.
	// Every bank gets its own adapter (banks never share reservation
	// state).
	NewAdapter(bank BankContext) mem.Adapter
}

// The package policy registry. Built-in policies register at init;
// custom policies register through RegisterPolicy /
// lrscwait.RegisterPolicy.
var (
	polMu     sync.RWMutex
	policyReg = map[string]Policy{}
)

// RegisterPolicy adds a policy to the registry, making it addressable
// from Config.Policy, the -policy flags, and the sweep policy grid. A
// duplicate name is rejected so two packages cannot silently shadow each
// other's hardware; names must be cache-key clean (non-empty, no
// whitespace, no '|').
func RegisterPolicy(p Policy) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("platform: cannot register a policy with an empty name")
	}
	if strings.ContainsAny(name, "| \t\n") {
		return fmt.Errorf("platform: policy name %q contains '|' or whitespace", name)
	}
	polMu.Lock()
	defer polMu.Unlock()
	if _, dup := policyReg[name]; dup {
		return fmt.Errorf("platform: policy %q already registered", name)
	}
	policyReg[name] = p
	return nil
}

// MustRegisterPolicy is RegisterPolicy, panicking on error. Intended for
// package init of policy libraries.
func MustRegisterPolicy(p Policy) {
	if err := RegisterPolicy(p); err != nil {
		panic(err)
	}
}

// LookupPolicy returns the policy prototype registered under name.
func LookupPolicy(name string) (Policy, bool) {
	polMu.RLock()
	defer polMu.RUnlock()
	p, ok := policyReg[name]
	return p, ok
}

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string {
	polMu.RLock()
	defer polMu.RUnlock()
	names := make([]string, 0, len(policyReg))
	for name := range policyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// policyNamesList renders the registry for error messages.
func policyNamesList() string {
	names := PolicyNames()
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// ResolvePolicy resolves a policy name and parameter set into a
// configured instance on topo. An empty name selects PolicyPlain
// (matching the zero Config); an unregistered name errors with the
// registered names listed.
func ResolvePolicy(name PolicyKind, params PolicyParams, topo noc.Topology) (Policy, error) {
	if name == "" {
		name = PolicyPlain
	}
	proto, ok := LookupPolicy(string(name))
	if !ok {
		return nil, fmt.Errorf("platform: unknown policy %q (registered: %s)",
			name, policyNamesList())
	}
	p, err := proto.Normalize(params, topo)
	if err != nil {
		return nil, fmt.Errorf("platform: policy %s: %w", name, err)
	}
	return p, nil
}

// Classes is a set of reservation-operation classes: the ones a policy
// serves (Serves), or the ones a program can make progress with.
type Classes uint8

// The reservation classes. Mwait is not one: a refused Mwait degrades
// to polling (locks.EmitWaitChange) and never blocks progress.
const (
	ClassLRSC     Classes = 1 << iota // LR then SC
	ClassLRSCWait                     // LRwait then SCwait
)

// String names the classes, joined by " or ".
func (c Classes) String() string {
	var names []string
	if c&ClassLRSC != 0 {
		names = append(names, "LR/SC")
	}
	if c&ClassLRSCWait != 0 {
		names = append(names, "LRwait/SCwait")
	}
	if len(names) == 0 {
		return "nothing"
	}
	return strings.Join(names, " or ")
}

// Serves reports the reservation classes the policy name resolves to
// with params on topo serves. It asks the policy's own adapter, so a
// custom policy gets its answer with no extra code: one adapter for an
// empty bank receives each class's uncontended sequence from one core
// (LR then SC, LRwait then SCwait), and a class is served when both
// replies are OK.
func Serves(name PolicyKind, params PolicyParams, topo noc.Topology) (Classes, error) {
	pol, err := ResolvePolicy(name, params, topo)
	if err != nil {
		return 0, err
	}
	a := pol.NewAdapter(BankContext{NumBanks: topo.NumBanks(), NumCores: topo.NumCores(), Topo: topo})
	var word probeWord
	ok := func(req bus.Request) bool {
		for _, r := range a.Handle(req, &word) {
			if r.Kind == bus.RespNormal && r.Op == req.Op && r.OK {
				return true
			}
		}
		return false
	}
	var served Classes
	for _, c := range [...]struct {
		class  Classes
		lr, sc bus.Op
	}{{ClassLRSC, bus.LR, bus.SC}, {ClassLRSCWait, bus.LRWait, bus.SCWait}} {
		if ok(bus.Request{Op: c.lr}) && ok(bus.Request{Op: c.sc, Data: 1}) {
			served |= c.class
		}
	}
	return served, nil
}

// probeWord is the empty bank Serves probes: one word at address 0.
type probeWord struct{ v uint32 }

func (w *probeWord) Read(uint32) uint32       { return w.v }
func (w *probeWord) Write(_ uint32, v uint32) { w.v = v }
func (w *probeWord) BankID() int              { return 0 }

func init() {
	MustRegisterPolicy(plainPolicy{})
	MustRegisterPolicy(singleSlotPolicy{})
	MustRegisterPolicy(tablePolicy{})
	MustRegisterPolicy(waitQueuePolicy{})
	MustRegisterPolicy(colibriPolicy{})
}

// plainPolicy is the no-reservation baseline: banks support only loads,
// stores and AMOs; every LR/SC-family operation is refused.
type plainPolicy struct{}

func (plainPolicy) Name() string { return string(PolicyPlain) }

func (p plainPolicy) Normalize(PolicyParams, noc.Topology) (Policy, error) { return p, nil }

func (plainPolicy) NewAdapter(BankContext) mem.Adapter { return mem.PlainAdapter{} }

// singleSlotPolicy is MemPool's baseline LRSC: one reservation slot per
// bank. It takes no parameters.
type singleSlotPolicy struct{}

func (singleSlotPolicy) Name() string { return string(PolicyLRSCSingle) }

func (p singleSlotPolicy) Normalize(PolicyParams, noc.Topology) (Policy, error) { return p, nil }

func (singleSlotPolicy) NewAdapter(BankContext) mem.Adapter { return reserve.NewSingleSlot() }

// tablePolicy is the ATUN-style reservation table: one entry per core
// per bank. It takes no parameters (the table sizes from the topology).
type tablePolicy struct{}

func (tablePolicy) Name() string { return string(PolicyLRSCTable) }

func (p tablePolicy) Normalize(PolicyParams, noc.Topology) (Policy, error) { return p, nil }

func (tablePolicy) NewAdapter(b BankContext) mem.Adapter { return reserve.NewTable(b.NumCores) }

// waitQueuePolicy is the paper's LRSCwait_q hardware queue. It reads
// PolicyParams.QueueCap, the slot count per bank; 0 (the default)
// selects the ideal queue with one slot per core.
type waitQueuePolicy struct {
	queueCap int // 0 = ideal (one slot per core)
}

func (waitQueuePolicy) Name() string { return string(PolicyWaitQueue) }

func (waitQueuePolicy) Normalize(params PolicyParams, _ noc.Topology) (Policy, error) {
	if params.QueueCap < 0 {
		return nil, fmt.Errorf("platform: queuecap=%d (want 0 = ideal, or slots)", params.QueueCap)
	}
	return waitQueuePolicy{queueCap: params.QueueCap}, nil
}

func (p waitQueuePolicy) NewAdapter(b BankContext) mem.Adapter {
	cap := p.queueCap
	if cap <= 0 {
		cap = b.NumCores
	}
	return reserve.NewWaitQueue(cap)
}

// colibriPolicy is the paper's distributed reservation queue. It reads
// PolicyParams.ColibriQueues, the head/tail pair count per bank
// controller; 0 (the default) selects DefaultColibriQueues.
type colibriPolicy struct {
	queues int // 0 = DefaultColibriQueues
}

func (colibriPolicy) Name() string { return string(PolicyColibri) }

func (colibriPolicy) Normalize(params PolicyParams, _ noc.Topology) (Policy, error) {
	if params.ColibriQueues < 0 {
		return nil, fmt.Errorf("platform: colibriq=%d (want >= 1 head/tail pair, 0 = default)",
			params.ColibriQueues)
	}
	return colibriPolicy{queues: params.ColibriQueues}, nil
}

func (p colibriPolicy) NewAdapter(BankContext) mem.Adapter {
	q := p.queues
	if q <= 0 {
		q = DefaultColibriQueues
	}
	return colibri.NewController(q)
}
