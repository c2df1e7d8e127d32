package platform

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

func TestPolicyNamesContainsBuiltins(t *testing.T) {
	names := map[string]bool{}
	all := PolicyNames()
	for _, n := range all {
		names[n] = true
	}
	for _, k := range []PolicyKind{PolicyPlain, PolicyLRSCSingle, PolicyLRSCTable,
		PolicyWaitQueue, PolicyColibri} {
		if !names[string(k)] {
			t.Errorf("built-in policy %s missing from PolicyNames()", k)
		}
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("PolicyNames() not sorted: %v", all)
		}
	}
}

func TestRegisterPolicyRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "has space", "has|pipe", string(PolicyColibri)} {
		if err := RegisterPolicy(litmusPolicyNamed(name)); err == nil {
			t.Errorf("RegisterPolicy(%q) accepted", name)
		}
	}
}

// litmusPolicyNamed wraps the test policy with an arbitrary name for
// registration-validation cases (never instantiated).
type namedPolicy struct{ name string }

func litmusPolicyNamed(name string) Policy { return namedPolicy{name} }

func (p namedPolicy) Name() string { return p.name }
func (p namedPolicy) Normalize(params PolicyParams, _ noc.Topology) (Policy, error) {
	return p, nil
}
func (p namedPolicy) NewAdapter(BankContext) mem.Adapter { return nil }

func TestResolvePolicyErrors(t *testing.T) {
	topo := noc.Small()
	if _, err := ResolvePolicy("nonesuch", PolicyParams{}, topo); err == nil {
		t.Error("unknown policy accepted")
	} else if !strings.Contains(err.Error(), `"nonesuch"`) ||
		!strings.Contains(err.Error(), "registered:") ||
		!strings.Contains(err.Error(), string(PolicyColibri)) {
		t.Errorf("unknown-policy error does not list the registry: %v", err)
	}
	// Empty name selects plain (the zero Config).
	pol, err := ResolvePolicy("", PolicyParams{}, topo)
	if err != nil || pol.Name() != string(PolicyPlain) {
		t.Errorf("empty name resolved to %v, %v", pol, err)
	}
	// Every policy accepts both parameters, including the policies they
	// don't apply to.
	for _, kind := range []PolicyKind{PolicyPlain, PolicyLRSCSingle, PolicyLRSCTable,
		PolicyWaitQueue, PolicyColibri} {
		if _, err := ResolvePolicy(kind, PolicyParams{QueueCap: 2, ColibriQueues: 2}, topo); err != nil {
			t.Errorf("%s rejected the parameters: %v", kind, err)
		}
	}
	// Out-of-range values are rejected.
	if _, err := ResolvePolicy(PolicyWaitQueue, PolicyParams{QueueCap: -1}, topo); err == nil {
		t.Error("negative queuecap accepted")
	}
	if _, err := ResolvePolicy(PolicyColibri, PolicyParams{ColibriQueues: -2}, topo); err == nil {
		t.Error("negative colibriq accepted")
	}
}

// TestPolicyParamsReachAdapters pins the parameter plumbing end to end:
// an adapter of the policy New resolved behaves as the configured
// parameters (and their defaults) say. It counts the LRwait
// reservations one adapter holds before its first refusal: a wait queue
// holds QueueCap waiters on one address, a Colibri controller one queue
// per distinct address, plain none.
func TestPolicyParamsReachAdapters(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		distinct bool // one address per request instead of one shared
		held     int
	}{
		{"waitqueue-ideal", SmallConfig(PolicyWaitQueue), false, 16},
		{"waitqueue-capped", Config{Topo: noc.Small(), Policy: PolicyWaitQueue,
			PolicyParams: PolicyParams{QueueCap: 1}}, false, 1},
		{"colibri-default", SmallConfig(PolicyColibri), true, 4},
		{"colibri-2", Config{Topo: noc.Small(), Policy: PolicyColibri,
			PolicyParams: PolicyParams{ColibriQueues: 2}}, true, 2},
		{"plain", SmallConfig(PolicyPlain), false, 0},
		{"zero-config-policy", Config{Topo: noc.Small()}, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := New(c.cfg, SameProgram(isa.HaltProgram()))
			if sys.Policy == nil {
				t.Fatal("System.Policy not recorded")
			}
			topo := c.cfg.Topo
			a := sys.Policy.NewAdapter(BankContext{
				NumBanks: topo.NumBanks(), NumCores: topo.NumCores(), Topo: topo,
			})
			var word probeWord
			held := -1
			for i := 0; i < 4*topo.NumCores() && held < 0; i++ {
				req := bus.Request{Op: bus.LRWait, Src: i}
				if c.distinct {
					req.Addr = uint32(4 * i)
				}
				for _, r := range a.Handle(req, &word, nil) {
					if r.Kind == bus.RespNormal && !r.OK {
						held = i
					}
				}
			}
			if held != c.held {
				t.Errorf("adapter held %d LRwait reservations before its first refusal, want %d", held, c.held)
			}
		})
	}
}

// TestNewPanicsOnUnknownPolicy pins the construction contract: an
// unregistered policy name is a programming error, like an invalid
// topology.
func TestNewPanicsOnUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with an unknown policy did not panic")
		}
	}()
	New(Config{Topo: noc.Small(), Policy: "nonesuch"}, SameProgram(isa.HaltProgram()))
}

// TestTeraPool1024Construction is the scale smoke test: the 1024-core,
// 4096-bank TeraPool topology must wire up and simulate. Guarded by
// -short because constructing the full machine allocates tens of
// megabytes of bank storage.
func TestTeraPool1024Construction(t *testing.T) {
	if testing.Short() {
		t.Skip("TeraPool construction is memory-heavy; skipped with -short")
	}
	topo := noc.TeraPool1024()
	sys := New(Config{Topo: topo, Policy: PolicyColibri}, SameProgram(isa.HaltProgram()))
	if got := len(sys.Cores); got != 1024 {
		t.Fatalf("cores = %d, want 1024", got)
	}
	if got := len(sys.Banks); got != 4096 {
		t.Fatalf("banks = %d, want 4096", got)
	}
	// The far corner of the address space must be reachable.
	last := uint32(4 * (topo.NumBanks()*1024 - 1))
	sys.WriteWord(last, 7)
	if got := sys.ReadWord(last); got != 7 {
		t.Fatalf("far-corner word = %d, want 7", got)
	}
	if !sys.RunUntilHalted(1000) {
		t.Fatal("halt-only kernel did not halt")
	}
	if !sys.Quiescent() {
		t.Error("system not quiescent after halt")
	}
}

// TestServes pins the probe's answers over the registry: each built-in
// serves the class its hardware implements, and a test-registered
// policy gets whatever its adapter grants (custom-litmus wraps the
// reservation table, so LR/SC).
func TestServes(t *testing.T) {
	registerLitmusPolicy()
	topo := noc.Small()
	for _, c := range []struct {
		kind   PolicyKind
		params PolicyParams
		want   Classes
	}{
		{PolicyPlain, PolicyParams{}, 0},
		{PolicyLRSCSingle, PolicyParams{}, ClassLRSC},
		{PolicyLRSCTable, PolicyParams{}, ClassLRSC},
		{PolicyWaitQueue, PolicyParams{}, ClassLRSCWait},
		{PolicyWaitQueue, PolicyParams{QueueCap: 1}, ClassLRSCWait},
		{PolicyColibri, PolicyParams{}, ClassLRSCWait},
		{PolicyColibri, PolicyParams{ColibriQueues: 1}, ClassLRSCWait},
		{"custom-litmus", PolicyParams{}, ClassLRSC},
	} {
		if got, err := Serves(c.kind, c.params, topo); err != nil || got != c.want {
			t.Errorf("Serves(%s, %+v) = %v, %v; want %v", c.kind, c.params, got, err, c.want)
		}
	}
	for _, name := range PolicyNames() {
		if _, err := Serves(PolicyKind(name), PolicyParams{}, topo); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Serves("nonesuch", PolicyParams{}, topo); err == nil {
		t.Error("an unknown policy probed without error")
	}
	if got := (ClassLRSC | ClassLRSCWait).String(); got != "LR/SC or LRwait/SCwait" {
		t.Errorf("String() = %q", got)
	}
}
