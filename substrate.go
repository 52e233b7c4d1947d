package saql

import (
	"saql/internal/attack"
	"saql/internal/collector"
	"saql/internal/replayer"
	"saql/internal/storage"
)

// This file re-exports the demonstration substrates so downstream users can
// drive the full paper scenario through the public API: the simulated data
// collection agents, the APT kill chain, the event store and the stream
// replayer.

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

// LabeledEvent is an attack event with its ground-truth step.
type LabeledEvent = attack.Labeled

// AttackEventsOnly strips ground-truth labels from attack events.
func AttackEventsOnly(labeled []LabeledEvent) []*Event { return attack.EventsOnly(labeled) }

// ---------------------------------------------------------------------------
// Event store and stream replayer
// ---------------------------------------------------------------------------

// Store is the embedded append-only event store.
type Store = storage.Store

// StoreOptions configure a store.
type StoreOptions = storage.Options

// OpenStore opens (creating if needed) an event store in dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return storage.Open(dir, opts) }

// Replayer replays stored monitoring data as a live stream.
type Replayer = replayer.Replayer

// ReplayOptions select hosts, time range, and speed for a replay.
type ReplayOptions = replayer.Options

// NewReplayer creates a replayer over store.
func NewReplayer(store *Store) *Replayer { return replayer.New(store) }
