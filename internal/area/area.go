// Package area models the silicon area of a MemPool tile with the
// different LRSCwait designs, reproducing the paper's Table I.
//
// The model is a component-count fit: a tile is 4 cores + 16 banks; each
// LRSCwait_q adapter costs a monitor plus q reservation slots per bank;
// Colibri costs a controller plus per-address head/tail register pairs per
// bank, plus one Qnode per core. The per-component constants are
// calibrated by least squares against the published kGE numbers (the
// fitted constants are Default; `sweep -table 1` prints every row next
// to its paper value, and the worst row is within 1%); the model then
// extrapolates, e.g. to the physically infeasible LRSCwait_ideal.
package area

// Model holds the calibrated per-component areas in kGE.
type Model struct {
	// TileBase is the unmodified mempool_tile area (paper: 691 kGE).
	TileBase float64
	// BanksPerTile and CoresPerTile describe the tile composition.
	BanksPerTile, CoresPerTile int

	// WaitQueue adapter: per-bank monitor logic plus per-slot storage.
	// One slot holds an address, a core ID (log2(n) bits) and state.
	QueueMonitor float64 // per bank
	QueueSlot    float64 // per bank per slot

	// Colibri: per-bank controller, per-bank-per-address head/tail
	// register pair, per-core queue node.
	ColibriController float64 // per bank
	ColibriHeadTail   float64 // per bank per tracked address
	Qnode             float64 // per core
}

// Default returns the model calibrated against Table I.
//
// Calibration: LRSCwait_1 adds 99 kGE per tile and LRSCwait_8 adds
// 174 kGE, giving slot = (174-99)/(16*7) ≈ 0.670 and monitor =
// 99/16 - slot ≈ 5.518. The four Colibri rows (+41, +59, +70, +111 kGE
// for 1/2/4/8 addresses) fit headTail ≈ 0.594 per bank per address with
// a fixed part of ≈ 34.6 kGE per tile, split between the controllers
// (16 banks) and the Qnodes (4 cores).
func Default() Model {
	return Model{
		TileBase:          691.0,
		BanksPerTile:      16,
		CoresPerTile:      4,
		QueueMonitor:      5.518,
		QueueSlot:         0.670,
		ColibriController: 1.50,
		ColibriHeadTail:   0.594,
		Qnode:             2.65,
	}
}

// Tile returns the baseline tile area in kGE.
func (m Model) Tile() float64 { return m.TileBase }

// TileWithWaitQueue returns the tile area with an LRSCwait_q adapter (q
// reservation slots) on every bank.
func (m Model) TileWithWaitQueue(q int) float64 {
	perBank := m.QueueMonitor + float64(q)*m.QueueSlot
	return m.TileBase + float64(m.BanksPerTile)*perBank
}

// TileWithColibri returns the tile area with a Colibri controller
// tracking the given number of addresses on every bank, plus the per-core
// Qnodes.
func (m Model) TileWithColibri(addresses int) float64 {
	perBank := m.ColibriController + float64(addresses)*m.ColibriHeadTail
	return m.TileBase + float64(m.BanksPerTile)*perBank +
		float64(m.CoresPerTile)*m.Qnode
}

// Overhead returns the percentage area increase of a over the base tile.
func (m Model) Overhead(a float64) float64 {
	return (a/m.TileBase - 1) * 100
}

// PolicyRows is an optional extension of platform policies
// (platform.Policy): a policy implementing it contributes its own rows
// to Table I, rendered by the table1 sweep scenario after the published
// configurations. m is the calibrated tile model (for the base area and
// Overhead) and nCores the evaluated core count. The built-in policies
// are already covered by TableI and do not implement it.
type PolicyRows interface {
	AreaRows(m Model, nCores int) []Row
}

// Row is one Table I line: the design, its parameters, the modelled area
// and the paper's published value (0 when the paper has no number —
// extrapolations).
type Row struct {
	Design    string
	Params    string
	AreaKGE   float64
	PaperKGE  float64
	OverheadP float64 // modelled overhead %
}

// TableI evaluates the model on every published configuration plus the
// ideal-queue extrapolation for nCores cores.
func TableI(m Model, nCores int) []Row {
	rows := []Row{
		{Design: "MemPool tile", Params: "none", AreaKGE: m.Tile(), PaperKGE: 691},
		{Design: "with LRSCwait1", Params: "1 queue slot", AreaKGE: m.TileWithWaitQueue(1), PaperKGE: 790},
		{Design: "with LRSCwait8", Params: "8 queue slots", AreaKGE: m.TileWithWaitQueue(8), PaperKGE: 865},
		{Design: "with LRSCwait_ideal", Params: "256 queue slots", AreaKGE: m.TileWithWaitQueue(nCores)},
		{Design: "with Colibri+Mwait", Params: "1 address", AreaKGE: m.TileWithColibri(1), PaperKGE: 732},
		{Design: "with Colibri+Mwait", Params: "2 addresses", AreaKGE: m.TileWithColibri(2), PaperKGE: 750},
		{Design: "with Colibri+Mwait", Params: "4 addresses", AreaKGE: m.TileWithColibri(4), PaperKGE: 761},
		{Design: "with Colibri+Mwait", Params: "8 addresses", AreaKGE: m.TileWithColibri(8), PaperKGE: 802},
	}
	for i := range rows {
		rows[i].OverheadP = m.Overhead(rows[i].AreaKGE)
	}
	return rows
}
