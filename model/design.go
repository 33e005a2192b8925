package model

import (
	"fmt"
	"slices"
)

// PinID identifies a pin within a Design. IDs are dense indices into the
// design's pin table, assigned in creation order by the Builder.
type PinID int32

// FFID identifies a flip-flop within a Design.
type FFID int32

// NoPin and NoFF are sentinel values for "absent".
const (
	NoPin PinID = -1
	NoFF  FFID  = -1
)

// PinKind classifies a pin's role in the timing graph.
type PinKind uint8

// Pin kinds. Clock-kind pins (ClockRoot, ClockBuf, FFClock) form the clock
// tree; all other pins belong to the data portion of the graph.
const (
	// Comb is an internal combinational pin (gate input/output, net tap).
	Comb PinKind = iota
	// PI is a primary input. Paths launched at a PI carry no CPPR credit.
	PI
	// PO is a primary output. Optional timed endpoint (extension; the
	// paper's evaluation only tests FF D pins).
	PO
	// ClockRoot is a clock source (one per clock domain).
	ClockRoot
	// ClockBuf is an internal clock-tree node (buffer/net vertex).
	ClockBuf
	// FFClock is a flip-flop clock (CK) pin: a leaf of the clock tree.
	FFClock
	// FFData is a flip-flop data (D) pin: a setup/hold test endpoint.
	FFData
	// FFOutput is a flip-flop output (Q) pin: a data-path start point.
	FFOutput
)

// String returns the lower-case kind name used in the file format.
func (k PinKind) String() string {
	switch k {
	case Comb:
		return "comb"
	case PI:
		return "pi"
	case PO:
		return "po"
	case ClockRoot:
		return "clockroot"
	case ClockBuf:
		return "clockbuf"
	case FFClock:
		return "ffclock"
	case FFData:
		return "ffdata"
	case FFOutput:
		return "ffoutput"
	default:
		return fmt.Sprintf("PinKind(%d)", uint8(k))
	}
}

// IsClock reports whether pins of this kind belong to the clock tree.
func (k PinKind) IsClock() bool {
	return k == ClockRoot || k == ClockBuf || k == FFClock
}

// Pin is a node of the timing graph.
type Pin struct {
	// Name is the hierarchical pin name. Unique within a design.
	Name string
	// Kind classifies the pin.
	Kind PinKind
	// FF is the owning flip-flop for FFClock/FFData/FFOutput pins,
	// NoFF otherwise.
	FF FFID
}

// Arc is a directed timing arc with early/late delay bounds.
type Arc struct {
	From, To PinID
	// Delay holds the early (minimum) and late (maximum) arc delay.
	// Valid designs have 0 <= Early <= Late.
	Delay Window
	// Invert marks a polarity-inverting clock-tree arc (an inverting
	// buffer): the edge sense flips between From and To. Only arcs with
	// both endpoints inside the clock tree may invert; transition-aware
	// CRPR (CRPRSameTransition) consumes the parity this induces.
	Invert bool
}

// FF is a D flip-flop: the unit at which setup and hold tests are checked.
// The clock-to-Q launch arc (Clock -> Output) is an ordinary Arc in the
// design, created by the Builder.
type FF struct {
	// Name is the instance name. Unique within a design.
	Name string
	// Clock, Data and Output are the CK, D and Q pins.
	Clock, Data, Output PinID
	// Setup and Hold are the constraint values T_setup and T_hold
	// tested at the Data pin.
	Setup, Hold Time
}

// Design is an immutable, validated timing graph. Construct one with a
// Builder (or the tau parser); the zero value is not usable.
//
// A Design carries precomputed derived structure: CSR fan-in/fan-out
// adjacency, a topological order of all pins, the clock-tree parent/depth
// arrays, and name lookup.
type Design struct {
	// Name labels the design in reports.
	Name string
	// Period is the clock period T_clk used by setup tests.
	Period Time

	// Pins, Arcs and FFs are the flat element tables, indexed by
	// PinID, arc index and FFID respectively.
	Pins []Pin
	Arcs []Arc
	FFs  []FF

	// Root is the primary clock source pin (Roots[0]); kept as a
	// convenience for the common single-domain case.
	Root PinID
	// Roots lists all clock source pins, one per clock domain. Paths
	// whose launching and capturing FFs sit in different domains share
	// no clock path and carry no CPPR credit.
	Roots []PinID

	// PIs lists the primary input pins; PIArrival gives each PI's
	// early/late external arrival window (indexed like PIs).
	PIs       []PinID
	PIArrival []Window

	// POs lists primary output pins (extension; may be empty).
	// PORequired gives each PO's required-time window (indexed like
	// POs) and POConstrained marks which POs carry an output timing
	// check. FF->PO and PI->PO paths have no capture clock path, so
	// they never carry CPPR credit.
	POs           []PinID
	PORequired    []Window
	POConstrained []bool

	// Derived adjacency in CSR form. fanout of pin u: arc indices
	// OutArcs[OutStart[u]:OutStart[u+1]]; fan-in symmetric.
	OutStart []int32
	OutArcs  []int32
	InStart  []int32
	InArcs   []int32

	// Topo is a topological order over all pins (clock tree included).
	// TopoIndex is its inverse: TopoIndex[u] is u's position in Topo.
	// Worklist-driven kernels (sta.Prop.RunSparse, sta.Incr) order their
	// frontiers by it.
	Topo      []PinID
	TopoIndex []int32
	// TopoBlockEnds partitions Topo into barrier blocks: block b spans
	// topological indices [TopoBlockEnds[b-1], TopoBlockEnds[b]) (block 0
	// starts at 0) and no arc connects two pins of the same block, so a
	// block's pins may be relaxed concurrently and the concatenation of
	// blocks in order is exactly Topo. Computed greedily at build time;
	// parallel kernels (sta.Prop.RunSparseParallel) use the blocks as
	// their synchronization barriers.
	TopoBlockEnds []int32

	// BaseCornerName optionally names corner 0 in reports ("" reads as
	// "base"). ExtraCorners holds the delay tables of corners
	// 1..NumCorners-1; see corner.go. Both are empty for the common
	// single-corner case.
	BaseCornerName string
	ExtraCorners   []CornerDelays

	// ClockParent[u] is the clock-tree parent arc's source for clock
	// pins, NoPin for the root and for non-clock pins. ClockParentArc
	// is the corresponding arc index (-1 where absent).
	ClockParent    []PinID
	ClockParentArc []int32
	// ClockDepth[u] is the clock-tree depth (root = 0); -1 for
	// non-clock pins.
	ClockDepth []int32
	// ClockParity[u] is the number of inverting clock arcs on the
	// root-to-u clock path, mod 2 (roots are 0); meaningless for
	// non-clock pins. Two clock pins of the same domain see the same
	// edge sense at a common ancestor iff their parities are equal.
	ClockParity []uint8
	// Depth is 1 + the maximum clock-tree depth over FF clock pins:
	// the "D" of the paper (number of clock tree levels).
	Depth int

	// Uncertainty is the per-mode clock uncertainty (setup, hold):
	// a margin subtracted from every FF-capture slack of that mode
	// (set_clock_uncertainty). Always >= 0.
	Uncertainty [2]Time

	byName map[string]PinID
}

// CloneWithArcs returns a shallow copy of d whose Arcs table is freshly
// allocated, so arc delays can be edited without mutating d. Arc delays
// are the only mutable timing inputs; every other field (pins, FFs, CSR
// adjacency, topological order, clock-tree arrays, name index) is
// delay-independent and shared with d. Callers that edit clock-arc
// delays must rebuild delay-derived caches (lca.Tree etc.) themselves.
func (d *Design) CloneWithArcs() *Design {
	nd := *d
	// slices.Clone, not make+copy: its allocation skips the zeroing the
	// copy would overwrite anyway, which is most of an edit's cost on
	// large designs.
	nd.Arcs = slices.Clone(d.Arcs)
	return &nd
}

// NumPins returns the number of pins.
func (d *Design) NumPins() int { return len(d.Pins) }

// NumArcs returns the number of timing arcs.
func (d *Design) NumArcs() int { return len(d.Arcs) }

// NumFFs returns the number of flip-flops.
func (d *Design) NumFFs() int { return len(d.FFs) }

// PinByName looks up a pin by name.
func (d *Design) PinByName(name string) (PinID, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// PinName returns the pin's name, or a placeholder for sentinel IDs.
func (d *Design) PinName(id PinID) string {
	if id == NoPin {
		return "<none>"
	}
	return d.Pins[id].Name
}

// FanOut returns the arc indices leaving pin u.
func (d *Design) FanOut(u PinID) []int32 {
	return d.OutArcs[d.OutStart[u]:d.OutStart[u+1]]
}

// FanIn returns the arc indices entering pin u.
func (d *Design) FanIn(u PinID) []int32 {
	return d.InArcs[d.InStart[u]:d.InStart[u+1]]
}

// IsClockPin reports whether u belongs to the clock tree.
func (d *Design) IsClockPin(u PinID) bool { return d.Pins[u].Kind.IsClock() }

// ArcBetween returns the index of an arc from -> to, or -1 when absent.
// Intended for tests and path validation, not hot loops.
func (d *Design) ArcBetween(from, to PinID) int32 {
	for _, ai := range d.FanOut(from) {
		if d.Arcs[ai].To == to {
			return ai
		}
	}
	return -1
}

// FFConnectivity computes the average number of distinct capturing FFs
// reachable from each launching FF's Q pin through the data graph: the
// "FF connectivity" statistic of the paper's Table III. It is O(#FFs * n)
// in the worst case and intended for reporting, not hot paths.
func (d *Design) FFConnectivity() float64 {
	if len(d.FFs) == 0 {
		return 0
	}
	// Reverse-topological accumulation of reachable capture-FF sets
	// would need O(n * #FF) bits; instead do a forward BFS per FF over
	// the data subgraph, which matches the reporting-only use.
	mark := make([]int32, len(d.Pins))
	for i := range mark {
		mark[i] = -1
	}
	var queue []PinID
	total := 0
	for fi := range d.FFs {
		q := d.FFs[fi].Output
		queue = queue[:0]
		queue = append(queue, q)
		mark[q] = int32(fi)
		seen := 0
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if d.Pins[u].Kind == FFData {
				seen++
				continue // D pins are endpoints
			}
			for _, ai := range d.FanOut(u) {
				v := d.Arcs[ai].To
				if mark[v] != int32(fi) {
					mark[v] = int32(fi)
					queue = append(queue, v)
				}
			}
		}
		total += seen
	}
	return float64(total) / float64(len(d.FFs))
}

// Stats summarises the design in the shape of the paper's Table III.
type Stats struct {
	Name     string
	NumPins  int
	NumEdges int
	NumFFs   int
	Depth    int // D: clock tree levels
	FFsPerD  float64
	// Connectivity is the average number of capturing FFs reachable
	// from a launching FF. Expensive to compute; filled only by
	// StatsWithConnectivity.
	Connectivity float64
}

// Stats returns basic statistics (without FF connectivity).
func (d *Design) Stats() Stats {
	s := Stats{
		Name:     d.Name,
		NumPins:  len(d.Pins),
		NumEdges: len(d.Arcs),
		NumFFs:   len(d.FFs),
		Depth:    d.Depth,
	}
	if d.Depth > 0 {
		s.FFsPerD = float64(len(d.FFs)) / float64(d.Depth)
	}
	return s
}

// StatsWithConnectivity returns Stats including the FF connectivity
// column, which requires an O(#FFs * n) reachability sweep.
func (d *Design) StatsWithConnectivity() Stats {
	s := d.Stats()
	s.Connectivity = d.FFConnectivity()
	return s
}
