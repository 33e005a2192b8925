package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/model"
	"fastcppr/sdc"
	"fastcppr/tau"
)

// signoffSDC is the constraint set of the SDC-driven workloads: clock
// uncertainty in both modes and a global early/late derate.
const signoffSDC = "set_clock_uncertainty -setup 50ps\n" +
	"set_clock_uncertainty -hold 20ps\n" +
	"set_timing_derate -early 0.95 -late 1.05\n"

// inputs is one design as the program receives it: tau text, SDC text
// (empty for none) and the number of delay corners. Generation is not
// timed; every timed set-up starts from these bytes.
type inputs struct {
	name    string
	tau     []byte
	sdc     string
	corners int
}

// leon2Inputs generates the leon2 preset at scale. The netlist is the
// preset's own (its fixed generator seed); seed jitters every arc
// delay by up to ±10%. Runs with different seeds then time different
// critical paths through a netlist of the same shape, so seed-to-seed
// differences stay small next to the changes a benchmark must detect.
func leon2Inputs(seed int64, scale, invertFrac float64, corners int, sdcText string) (*inputs, error) {
	spec, err := gen.PresetSpec("leon2", scale)
	if err != nil {
		return nil, err
	}
	spec.ClockInvertFrac = invertFrac
	d, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	d = d.CloneWithArcs()
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Arcs {
		d.Arcs[i].Delay = scaled(d.Arcs[i].Delay, 0.9+0.2*rng.Float64())
	}
	return serialise("leon2", d, corners, sdcText)
}

// blockedInputs generates the repeated-block preset with the given
// instance count. Deep blocks are where extraction compresses. Every
// instance must keep identical delays for models to be reused, so the
// netlist and its delays are fixed; the seed drives the edit stream.
func blockedInputs(instances, corners int, sdcText string) (*inputs, error) {
	spec := gen.BlockedArray(404)
	spec.Instances = instances
	spec.Layers = 32
	spec.FanIn = 4
	d, err := gen.GenerateBlocked(spec)
	if err != nil {
		return nil, err
	}
	return serialise("blocked_array", d, corners, sdcText)
}

func serialise(name string, d *model.Design, corners int, sdcText string) (*inputs, error) {
	var buf bytes.Buffer
	if err := tau.Write(&buf, d); err != nil {
		return nil, err
	}
	return &inputs{name: name, tau: buf.Bytes(), sdc: sdcText, corners: corners}, nil
}

// withCorners adds corners-1 uniformly derated corners, the same
// fast/slow sweep the service builds for a LoadRequest.
func withCorners(d *model.Design, corners int) (*model.Design, error) {
	for i := 1; i < corners; i++ {
		spread := 0.05 * float64(i)
		var err error
		if d, _, err = d.WithScaledCorner(fmt.Sprintf("c%d", i), 1-spread, 1+spread); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// timerKind selects the constructor a set-up calls.
type timerKind int

const (
	flatTimer timerKind = iota
	hierTimer
)

// setup turns the input bytes into a ready timer: tau.Read, corner
// derivation, sdc.Parse, NewTimer or NewHierTimer, ApplySDC. Each call
// into a layer gets a span under parent; ctorSpan names the
// constructor's span. Stats is the timer's counter state right after
// construction, before ApplySDC.
func (in *inputs) setup(rec *recorder, parent int, kind timerKind, ctorSpan string, par cppr.Parallelism) (*cppr.Timer, cppr.TimerStats, error) {
	sp := rec.begin("tau.read", parent, 0)
	d, err := tau.Read(bytes.NewReader(in.tau))
	rec.end(sp)
	if err != nil {
		return nil, cppr.TimerStats{}, fmt.Errorf("%s: %w", in.name, err)
	}
	if d, err = withCorners(d, in.corners); err != nil {
		return nil, cppr.TimerStats{}, err
	}
	var c *sdc.Constraints
	if in.sdc != "" {
		sp = rec.begin("sdc.parse", parent, 0)
		c, err = sdc.ParseString(in.sdc)
		rec.end(sp)
		if err != nil {
			return nil, cppr.TimerStats{}, err
		}
	}
	var t *cppr.Timer
	sp = rec.begin(ctorSpan, parent, 0)
	if kind == hierTimer {
		t, err = cppr.NewHierTimer(d, cppr.HierOptions{})
	} else {
		t = cppr.NewTimer(d)
	}
	rec.end(sp)
	if err != nil {
		return nil, cppr.TimerStats{}, err
	}
	t.SetParallelism(par)
	st := t.Stats()
	if c != nil {
		sp = rec.begin("cppr.apply_sdc", parent, 0)
		_, err = t.ApplySDC(c)
		rec.end(sp)
		if err != nil {
			return nil, cppr.TimerStats{}, err
		}
	}
	return t, st, nil
}

// allWorkers is the parallelism every timed timer runs with.
func allWorkers(n int) cppr.Parallelism { return cppr.Parallelism{Workers: n, QueryThreads: n} }
