package sdn

import (
	"errors"
	"fmt"
	"weak"

	"sdnbugs/internal/openflow"
)

// EventKind is one of the four canonical controller input sources of
// the paper's Figure 1.
type EventKind int

// EventKind values.
const (
	EventUnknown EventKind = iota
	EventConfig
	EventNetwork
	EventExternalCall
	EventHardwareReboot
)

func (k EventKind) String() string {
	switch k {
	case EventConfig:
		return "configuration"
	case EventNetwork:
		return "network-event"
	case EventExternalCall:
		return "external-call"
	case EventHardwareReboot:
		return "hardware-reboot"
	default:
		return "unknown"
	}
}

// Event is one controller input.
type Event struct {
	Seq  int
	Kind EventKind
	// Msg carries the OpenFlow message for EventNetwork.
	Msg openflow.Message
	// Key/Value carry a configuration change for EventConfig.
	Key, Value string
	// Service names the external service for EventExternalCall.
	Service string
	// DPID names the rebooted datapath for EventHardwareReboot.
	DPID uint64
}

// Environment models the ecosystem around the controller: versioned
// external services the controller calls into. Version mismatches are
// how ecosystem-interaction bugs manifest (paper §V-A).
type Environment struct {
	// Versions is the deployed version of each external service.
	Versions map[string]int
}

// NewEnvironment returns an environment with the given services at
// version 1.
func NewEnvironment(services ...string) *Environment {
	env := &Environment{Versions: make(map[string]int)}
	for _, s := range services {
		env.Versions[s] = 1
	}
	return env
}

// Clone deep-copies the environment.
func (e *Environment) Clone() *Environment {
	out := &Environment{Versions: make(map[string]int, len(e.Versions))}
	for k, v := range e.Versions {
		out.Versions[k] = v
	}
	return out
}

// State is the controller's liveness state.
type State int

// State values.
const (
	StateRunning State = iota + 1
	StateCrashed
	StateStalled
)

func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateCrashed:
		return "crashed"
	case StateStalled:
		return "stalled"
	default:
		return "unknown"
	}
}

// Stats aggregates the controller's health counters. Cost is logical
// time: each event handler reports processing cost in ticks, so tests
// and detectors never depend on wall-clock time.
type Stats struct {
	EventsProcessed int
	EventsDropped   int
	ErrorsLogged    int
	TotalCost       int
	MaxEventCost    int
}

// Controller errors.
var (
	// ErrCrash is returned by an app to signal a fail-stop failure.
	ErrCrash = errors.New("sdn: controller crash")
	// ErrNotRunning is returned when events are submitted to a dead
	// controller.
	ErrNotRunning = errors.New("sdn: controller not running")
)

// App is a control application. HandleEvent returns the processing
// cost in ticks and an error; wrapping ErrCrash makes the failure
// fail-stop.
type App interface {
	Name() string
	HandleEvent(c *Controller, ev Event) (cost int, err error)
}

// Middleware wraps event handling — the fault-injection hook.
type Middleware func(HandlerFunc) HandlerFunc

// HandlerFunc is the middleware-visible handler signature.
type HandlerFunc func(c *Controller, ev Event) (int, error)

// Controller is the event-driven SDN controller runtime.
type Controller struct {
	Net *Network
	Env *Environment
	App App

	// Config is the controller's live configuration.
	Config map[string]string

	// Log is the ordered record of processed events (for replay-based
	// recovery). It is append-only: Submit appends, ReserveLog and
	// Follow replace it with a longer log that has it as a prefix, and
	// only Restart(false) drops it. Followers share its array, so
	// nothing may rewrite an entry below its length.
	Log []Event

	// ErrorLog holds logged (non-fatal) error messages.
	ErrorLog []string

	State State
	Stats Stats

	handler HandlerFunc

	// grewFrom and grewLen record the array ReserveLog last copied
	// Log out of and how many events it copied (see Follow).
	grewFrom weak.Pointer[Event]
	grewLen  int
}

// NewController wires a controller to a network, environment, and app,
// with optional middleware (outermost first).
func NewController(net *Network, env *Environment, app App, mw ...Middleware) *Controller {
	c := &Controller{
		Net:    net,
		Env:    env,
		App:    app,
		Config: make(map[string]string),
		State:  StateRunning,
	}
	h := func(ctl *Controller, ev Event) (int, error) {
		return ctl.App.HandleEvent(ctl, ev)
	}
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	c.handler = h
	return c
}

// stallCostThreshold is the per-event cost above which the controller
// is considered stalled (temporarily frozen, §IV).
const stallCostThreshold = 1000

// Submit processes one event through the app (and any middleware),
// recording it in the event log first. A full log grows as ReserveLog
// grows it, by half its length.
func (c *Controller) Submit(ev Event) error {
	if c.State == StateCrashed {
		c.Stats.EventsDropped++
		return ErrNotRunning
	}
	ev.Seq = len(c.Log)
	c.ReserveLog(1)
	c.Log = append(c.Log, ev)
	return c.process(ev)
}

// Reprocess handles an already-logged event again without re-recording
// it — the primitive replay- and checkpoint-based recovery builds on.
func (c *Controller) Reprocess(ev Event) error {
	if c.State == StateCrashed {
		c.Stats.EventsDropped++
		return ErrNotRunning
	}
	return c.process(ev)
}

// process runs one event through the handler chain and updates the
// health counters and liveness state.
func (c *Controller) process(ev Event) error {
	cost, err := c.handler(c, ev)
	if cost < 1 {
		cost = 1
	}
	c.Stats.EventsProcessed++
	c.Stats.TotalCost += cost
	if cost > c.Stats.MaxEventCost {
		c.Stats.MaxEventCost = cost
	}
	if cost >= stallCostThreshold {
		c.State = StateStalled
	} else if c.State == StateStalled {
		c.State = StateRunning
	}
	if err != nil {
		if errors.Is(err, ErrCrash) {
			c.State = StateCrashed
			return fmt.Errorf("sdn: event %d: %w", ev.Seq, err)
		}
		c.ErrorLog = append(c.ErrorLog, err.Error())
		c.Stats.ErrorsLogged++
	}
	return nil
}

// InstallFlow sends a flow-mod to the dataplane.
func (c *Controller) InstallFlow(fm openflow.FlowMod) error {
	return c.Net.ApplyFlowMod(fm)
}

// Restart clears the controller's volatile state (app state is the
// app's business — see App implementations) but keeps the same app and
// middleware, i.e. the same code including its bugs. The event log is
// preserved for replay-based strategies; pass keepLog=false to drop it.
func (c *Controller) Restart(keepLog bool) {
	c.State = StateRunning
	c.Stats = Stats{}
	c.ErrorLog = nil
	c.Config = make(map[string]string)
	if !keepLog {
		// The new log shares nothing with the array the old one grew
		// from, so that record must not prove a prefix any more.
		c.Log = nil
		c.grewFrom, c.grewLen = weak.Pointer[Event]{}, 0
	}
	if r, ok := c.App.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// MeanEventCost returns average ticks per processed event (0 if none).
func (s Stats) MeanEventCost() float64 {
	if s.EventsProcessed == 0 {
		return 0
	}
	return float64(s.TotalCost) / float64(s.EventsProcessed)
}
