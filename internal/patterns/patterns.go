// Package patterns is the synchronization-pattern workload suite: the
// classic shared-memory synchronization idioms — barriers (central
// sense-reversing, binary tree, butterfly), RCU writer synchronization
// (epoch flip-and-wait), and an HSynch/CC-Synch-style combining lock —
// each built as an assembly kernel on internal/isa + internal/locks and
// registered as a sweep.Scenario.
//
// The paper's claim is about synchronization *patterns*, not just its
// three evaluation kernels: polling-free, retry-free waiting scales
// where spinning collapses. Every kernel here therefore parameterizes
// its waiters across locks.WaitKinds — busy spin, backoff spin, and
// Mwait sleep — the software axis that maps onto the hardware policy
// axis (plain/lrsc/lrsc-table/lrscwait/colibri) the sweep grid already
// sweeps. The kernels use only AMOs, plain loads/stores and Mwait, and
// every Mwait sits in a retry loop, so they run (if slowly) under every
// registered policy, including ones that refuse Mwait.
//
// Registration happens in this package's init (scenarios.go); importing
// the package — directly, via the facade, or blank from cmd/sweep — is
// what adds the kinds to the registry. The sweep engine's grid, cache,
// emitters and service fabric apply unchanged.
package patterns

import (
	"fmt"
	"slices"
	"strings"
)

// Scenario parameter keys (Job.Params / cmd/sweep -params).
const (
	// ParamWait selects the swept wait strategies: a comma-separated
	// subset of spin, backoff, mwait. Default: all three.
	ParamWait = "wait"
	// ParamVariant selects the swept barrier variants: a comma-separated
	// subset of central, tree, butterfly. Default: all three.
	ParamVariant = "variant"
	// ParamMaxCombine bounds how many queued requests one combining-lock
	// holder serves before handing over. Default: 16.
	ParamMaxCombine = "maxcombine"
)

// DefaultMaxCombine is the combining-lock holder's serve bound when
// ParamMaxCombine is unset (CC-Synch's h; bounds holder latency).
const DefaultMaxCombine = 16

// parseList parses a comma-separated list with parse ("" selects all)
// and returns the items with their canonical spelling. A repeated item
// is refused.
func parseList[T interface {
	comparable
	String() string
}](s, what string, all func() []T, parse func(string) (T, error)) ([]T, string, error) {
	items := all()
	if strings.TrimSpace(s) != "" {
		items = nil
		for _, part := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(part))
			if err != nil {
				return nil, "", err
			}
			if slices.Contains(items, v) {
				return nil, "", fmt.Errorf("patterns: duplicate %s %q", what, v)
			}
			items = append(items, v)
		}
	}
	names := make([]string, len(items))
	for i, v := range items {
		names[i] = v.String()
	}
	return items, strings.Join(names, ","), nil
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
