package saql

import (
	"saql/internal/attack"
	"saql/internal/baseline"
	"saql/internal/collector"
	"saql/internal/replayer"
	"saql/internal/storage"
)

// This file re-exports the demonstration substrates so downstream users can
// drive the full paper scenario through the public API: the simulated data
// collection agents, the APT kill chain, the event store, the stream
// replayer, and the per-query-copy CEP baseline.

// ---------------------------------------------------------------------------
// Data collection (simulated agents)
// ---------------------------------------------------------------------------

// Host describes one simulated enterprise host.
type Host = collector.Host

// HostKind selects a host behaviour profile.
type HostKind = collector.HostKind

// Host profiles.
const (
	Workstation      = collector.Workstation
	DBServer         = collector.DBServer
	WebServer        = collector.WebServer
	MailServer       = collector.MailServer
	DomainController = collector.DomainController
)

// WorkloadConfig configures the background workload generator.
type WorkloadConfig = collector.Config

// Workload generates deterministic background system activity for a set of
// hosts, in global event-time order.
type Workload = collector.Generator

// NewWorkload creates a background workload generator.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return collector.New(cfg) }

// ---------------------------------------------------------------------------
// APT attack scenario
// ---------------------------------------------------------------------------

// AttackScenario generates the paper's five-step APT kill chain.
type AttackScenario = attack.Scenario

// AttackStep identifies one kill-chain stage (c1..c5).
type AttackStep = attack.Step

// Kill-chain steps.
const (
	StepInitialCompromise   = attack.StepInitialCompromise
	StepMalwareInfection    = attack.StepMalwareInfection
	StepPrivilegeEscalation = attack.StepPrivilegeEscalation
	StepPenetration         = attack.StepPenetration
	StepDataExfiltration    = attack.StepDataExfiltration
)

// AttackSteps lists all steps in order.
var AttackSteps = attack.Steps

// LabeledEvent is an attack event with its ground-truth step.
type LabeledEvent = attack.Labeled

// NamedQuery pairs a SAQL query with its name, target step, and model family.
type NamedQuery = attack.NamedQuery

// AttackEventsOnly strips ground-truth labels from attack events.
func AttackEventsOnly(labeled []LabeledEvent) []*Event { return attack.EventsOnly(labeled) }

// RansomwareScenario is a second built-in attack: a payload mass-encrypting
// user documents, exercising the execute/delete operations and count-based
// behavioural queries (see its DetectionQueries method).
type RansomwareScenario = attack.RansomwareScenario

// ---------------------------------------------------------------------------
// Event store and stream replayer
// ---------------------------------------------------------------------------

// Store is the embedded append-only event store.
type Store = storage.Store

// StoreOptions configure a store.
type StoreOptions = storage.Options

// Selection filters a store scan or replay.
type Selection = storage.Selection

// OpenStore opens (creating if needed) an event store in dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return storage.Open(dir, opts) }

// Replayer replays stored monitoring data as a live stream.
type Replayer = replayer.Replayer

// ReplayOptions select hosts, time range, and speed for a replay.
type ReplayOptions = replayer.Options

// ReplayStats summarise one replay run.
type ReplayStats = replayer.Stats

// NewReplayer creates a replayer over store.
func NewReplayer(store *Store) *Replayer { return replayer.New(store) }

// ---------------------------------------------------------------------------
// Generic-CEP baseline (comparison experiments)
// ---------------------------------------------------------------------------

// BaselineEngine executes queries the generic-CEP way: one data copy per
// query per event, no sharing. It exists for the paper's efficiency
// comparisons; production deployments should use Engine.
type BaselineEngine = baseline.Engine

// NewBaselineEngine creates a baseline engine without error reporting.
func NewBaselineEngine() *BaselineEngine { return baseline.New(nil) }
