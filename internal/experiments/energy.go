package experiments

import (
	"repro/internal/kernels"
	"repro/internal/platform"
)

// Table II: energy per atomic operation at the highest contention level
// (histogram with a single bin), plus average power at 600 MHz. The
// measurement itself is assembled by the table2 sweep scenario from
// RunHistogramPoint activity counters and the energy model; this file
// holds the row specs and the published reference values.

// TableIISpecs returns the four rows of Table II.
func TableIISpecs() []HistSpec {
	return []HistSpec{
		{Name: "amoadd", Variant: kernels.HistAmoAdd, Policy: PaperPolicy(platform.PolicyPlain)},
		{Name: "colibri", Variant: kernels.HistLRSCWait, Policy: PaperPolicy(platform.PolicyColibri)},
		{Name: "lrsc", Variant: kernels.HistLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
		{Name: "amoadd-lock", Variant: kernels.HistLockTicket, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
	}
}

// TableIIFreqMHz is the clock the paper reports average power at.
const TableIIFreqMHz = 600

// TableIIRef is one row's published reference values: the backoff the
// paper annotates and the reported energy per operation.
type TableIIRef struct {
	Backoff int
	PJ      float64
}

var tableIIPaper = map[string]TableIIRef{
	"amoadd":      {0, 29},
	"colibri":     {0, 124},
	"lrsc":        {128, 884},
	"amoadd-lock": {128, 1092},
}

// TableIIPaperRef returns the published Table II reference values for a
// spec name (the zero TableIIRef for rows the paper does not report).
func TableIIPaperRef(name string) TableIIRef {
	return tableIIPaper[name]
}
