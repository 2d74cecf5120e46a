package expt

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"vm1place/internal/core"
	"vm1place/internal/layout"
	"vm1place/internal/lefdef"
	"vm1place/internal/tech"
)

// TestFlowConfigParamsDEFPath checks that a flow and an external LEF/DEF
// placement (vm1opt -lef/-def) expand one FlowConfig into the same
// optimizer parameters. MaxOuterIters and TimeLimit stand for the plain
// pass-through fields (both set away from their defaults); SlackAlphaWeight
// without an objective is the field the DEF path once dropped. The
// slack-derived NetAlpha comes from STA over the parsed design, whose nets
// a DEF round trip reorders, so across the two paths it is checked for
// presence and length; against a placement built like the flow's it must
// match exactly.
func TestFlowConfigParamsDEFPath(t *testing.T) {
	spec := DesignSpec{Name: "m0", NumInsts: MinScaledInsts, Seed: 7}
	cfg := FlowConfig{
		Arch:             tech.ClosedM1,
		Util:             0.75,
		Workers:          1,
		SlackAlphaWeight: 2,
		MaxOuterIters:    1,
		TimeLimit:        -1,
	}

	// Flow path: capture the params the optimize stage receives.
	errStop := errors.New("stop before optimizing")
	var flowPrm core.Params
	opt := func(_ context.Context, _ *layout.Placement, prm core.Params, _ core.Sequence) (core.Result, error) {
		flowPrm = prm
		return core.Result{}, errStop
	}
	if _, err := runFlow(context.Background(), spec, cfg, opt, 0, false); !errors.Is(err, errStop) {
		t.Fatalf("flow: got %v, want the optimize stage's stop error", err)
	}

	p, err := BuildPlaced(spec, cfg.Arch, cfg.Util)
	if err != nil {
		t.Fatal(err)
	}
	if prm, err := cfg.Params(p); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(prm, flowPrm) {
		t.Errorf("flow params differ from FlowConfig.Params:\nflow:   %+v\nParams: %+v", flowPrm, prm)
	}

	// DEF path: the same placement written out and read back.
	var lef, def bytes.Buffer
	if err := lefdef.WriteLEF(&lef, p.Design.Lib); err != nil {
		t.Fatal(err)
	}
	if err := lefdef.WriteDEF(&def, p); err != nil {
		t.Fatal(err)
	}
	lib, err := lefdef.ParseLEF(&lef, tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	q, err := lefdef.ParseDEF(&def, lib.Tech, lib)
	if err != nil {
		t.Fatal(err)
	}
	defPrm, err := cfg.Params(q)
	if err != nil {
		t.Fatal(err)
	}

	if defPrm.MaxOuterIters != 1 || defPrm.TimeLimit != 0 ||
		len(defPrm.NetAlpha) != len(q.Design.Nets) {
		t.Errorf("DEF path dropped config: MaxOuterIters %d, TimeLimit %v, %d NetAlpha for %d nets",
			defPrm.MaxOuterIters, defPrm.TimeLimit, len(defPrm.NetAlpha), len(q.Design.Nets))
	}
	flowPrm.NetAlpha, defPrm.NetAlpha = nil, nil
	if !reflect.DeepEqual(flowPrm, defPrm) {
		t.Errorf("params differ between paths:\nflow: %+v\nDEF:  %+v", flowPrm, defPrm)
	}
}
