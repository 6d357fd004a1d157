// Package decent is the public API of the reproduction of "Please, do not
// decentralize the Internet with (permissionless) blockchains!" (Garcia
// Lopez, Montresor, Datta — ICDCS 2019).
//
// The paper is a position paper: its evaluation is a set of quantitative
// claims about open peer-to-peer systems, permissionless blockchains, and
// their permissioned/edge alternatives. This library rebuilds every system
// those claims rest on — Kademlia/Chord/one-hop/Gnutella overlays, gossip,
// churn and sybil attack models, a proof-of-work blockchain with its mining
// economy, PBFT/Raft and a Fabric-style permissioned stack, and an edge
// placement model — and regenerates each claim as an experiment with a shape
// verdict.
//
// Quick start:
//
//	reg, _ := decent.Experiments()
//	res, _ := reg.Run("E06", decent.Config{Seed: 1})
//	fmt.Println(res)
//
// Parameter sweeps and multi-seed replication run through the harness:
//
//	rep, _ := decent.RunSweep(decent.Sweep{
//		Experiments: []string{"E03", "E06"},
//		Seeds:       []int64{1, 2, 3, 4, 5},
//	}, 0) // 0 workers = GOMAXPROCS
//	fmt.Println(rep)
//
// The reproduction report renders offline (GenerateReport); ReportHandler
// serves a generated tree over HTTP.
//
// The re-exports below are grouped by layer: kernel, transport,
// telemetry, experiments, harness, report, and serve.
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results.
package decent

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ---------------------------------------------------------------------------
// Kernel — the deterministic discrete-event simulator. The sharded kernel
// E03 runs on stays internal.
// ---------------------------------------------------------------------------

// Sim is the deterministic discrete-event kernel.
type Sim = sim.Sim

// NewSim builds a simulator whose named RNG streams derive from seed.
func NewSim(seed int64) *Sim {
	return sim.New(sim.WithSeed(seed))
}

// NewObservedSim builds a simulator with a telemetry collector attached:
// the kernel reports event and queue statistics to it, and transports
// built on the sim auto-register their instruments.
func NewObservedSim(seed int64, col *Collector) *Sim {
	return sim.New(sim.WithSeed(seed), sim.WithObserver(col))
}

// ---------------------------------------------------------------------------
// Transport — the unified WAN layer every substrate's message delivery
// rides on. Library users compose custom scenarios the same way the
// experiments do: build a Sim, attach a Transport, realize a
// TransportTopology, and schedule condition windows on it.
// ---------------------------------------------------------------------------

// Transport is the simulated wide-area network: regional latencies,
// asymmetric access bandwidth, loss, partitions, and scheduled condition
// windows, with allocation-free Send/Broadcast delivery.
type Transport = netmodel.Net

// TransportOption configures a Transport (jitter, loss).
type TransportOption = netmodel.Option

// WithJitter and WithLoss are the Transport constructor options.
var (
	WithJitter = netmodel.WithJitter
	WithLoss   = netmodel.WithLoss
)

// NewTransport attaches a WAN model to the simulator.
func NewTransport(s *Sim, opts ...TransportOption) *Transport {
	return netmodel.New(s, opts...)
}

// Region is a coarse geographic location on the Transport.
type Region = netmodel.Region

// TransportNode identifies a node attached to the Transport.
type TransportNode = netmodel.NodeID

// The supported regions.
const (
	NorthAmerica = netmodel.NorthAmerica
	Europe       = netmodel.Europe
	Asia         = netmodel.Asia
	SouthAmerica = netmodel.SouthAmerica
	Oceania      = netmodel.Oceania
	Africa       = netmodel.Africa
)

// TransportTopology describes a node population statistically (weighted
// regional mix plus bandwidth classes) for Transport.BuildTopology.
type TransportTopology = netmodel.TopologySpec

// RegionWeight is one component of a regional mix.
type RegionWeight = netmodel.RegionWeight

// BandwidthClass is one weighted access-link tier.
type BandwidthClass = netmodel.BandwidthClass

// MixPreset returns one of the named regional mixes (1..NumMixPresets).
func MixPreset(i int) ([]RegionWeight, error) {
	return netmodel.MixPreset(i)
}

// NumMixPresets is the count of named regional mixes.
const NumMixPresets = netmodel.NumMixPresets

// Shared transport pacing defaults (substrate retry/pacing timescales).
const (
	TransportRetryDelay = netmodel.DefaultRetryDelay
	TransportPacing     = netmodel.DefaultPacing
)

// ---------------------------------------------------------------------------
// Telemetry — the zero-cost-when-off run-telemetry layer. Attach a
// Collector to a run (Config.Obs, or NewObservedSim for custom scenarios)
// and the kernel plus every instrumented subsystem record counters,
// streaming latency histograms, and optionally a Chrome trace-event log
// into it. A nil Collector is the off switch: every recording call is a
// nil-receiver no-op and the hot paths stay allocation-free.
// ---------------------------------------------------------------------------

// Collector gathers one run's telemetry: named counters and gauges,
// constant-memory streaming histograms, kernel statistics, and an
// optional bounded event trace.
type Collector = obs.Collector

// CollectorOption configures a Collector.
type CollectorOption = obs.Option

// NewCollector builds a telemetry collector. Without options it records
// counters, gauges, and histograms; add WithTrace to also buffer events.
func NewCollector(opts ...CollectorOption) *Collector {
	return obs.NewCollector(opts...)
}

// WithTrace enables the event trace with the given buffer limit (<= 0
// means DefaultTraceLimit); once full, further events increment a drop
// counter instead of growing memory.
var WithTrace = obs.WithTrace

// DefaultTraceLimit is the default event-trace buffer size.
const DefaultTraceLimit = obs.DefaultTraceLimit

// TelemetrySnapshot is a Collector's deterministic end-of-run summary:
// kernel statistics plus sorted counter, gauge, and histogram views.
type TelemetrySnapshot = obs.Snapshot

// Trace is the bounded event log a Collector buffers when built with
// WithTrace; WriteJSON renders it in Chrome trace-event format
// (chrome://tracing, Perfetto).
type Trace = obs.Trace

// HostSample carries host-side run measurements (wall time, heap, alloc
// deltas). These are machine facts: they ride on JobResult and the
// report's volatile resources/host.json, never on deterministic output.
type HostSample = obs.HostSample

// ---------------------------------------------------------------------------
// Experiments — the paper's claims as runnable, knob-parameterized
// reproductions (E01–E19), resolved through a registry.
// ---------------------------------------------------------------------------

// Config controls an experiment run. It is re-exported from the core
// framework: Seed pins determinism, Scale trades fidelity for speed, and
// Params carries named per-experiment knobs for sweeps.
type Config = core.Config

// Result is an experiment outcome: regenerated tables/figures plus shape
// checks.
type Result = core.Result

// Experiment is one reproducible paper claim.
type Experiment = core.Experiment

// Registry holds the paper's experiments.
type Registry = core.Registry

// Experiments returns the full registry (E01–E19) in paper order.
func Experiments() (*Registry, error) {
	return experiments.Registry()
}

// Run executes a single experiment by id with the given configuration.
func Run(id string, cfg Config) (*Result, error) {
	reg, err := experiments.Registry()
	if err != nil {
		return nil, err
	}
	return reg.Run(id, cfg)
}

// SectionOf returns the paper section an experiment's claim belongs to
// (e.g. "§III-C P2") — the axis the reproduction report's traceability
// matrix is grouped on.
func SectionOf(e Experiment) string {
	return core.SectionOf(e)
}

// Knobs lists the sweepable per-experiment knobs (name -> description).
func Knobs() map[string]string {
	return experiments.Knobs()
}

// KnobSpec describes one sweepable knob: its default (equal to the
// documented baseline literal), the measurement floor and maximum outside
// which explicit values are run errors, and whether values must be whole.
type KnobSpec = experiments.KnobSpec

// KnobSpecs returns the full sweepable-knob registry, one or more knobs
// per experiment E01–E19.
func KnobSpecs() map[string]KnobSpec {
	return experiments.KnobSpecs()
}

// KnobAppliesTo reports whether a knob name belongs to the given
// experiment id ("e03.lookups" applies to "E03").
func KnobAppliesTo(name, id string) bool {
	return harness.KnobAppliesTo(name, id)
}

// DefaultGridPoints is the default number of swept values per knob in a
// sensitivity grid (KnobSpec.Grid, report -sensitivity).
const DefaultGridPoints = experiments.DefaultGridPoints

// SensitivityGrids builds the default sensitivity grid for every
// registered knob: name -> up to points values spanning the knob's
// floor → default → stretch range, valid as explicit settings at the
// given workload scale. This is the grid `decentsim report -sensitivity`
// sweeps when ReportOptions.Grids is nil.
func SensitivityGrids(points int, scale float64) map[string][]float64 {
	return experiments.SensitivityGrids(points, scale)
}

// ---------------------------------------------------------------------------
// Harness — the worker-pool execution layer: sweep grids (ids × seeds ×
// scales × knobs), parallel execution, and multi-seed aggregation into
// verdict reports.
// ---------------------------------------------------------------------------

// MaxSeeds bounds how many seeds one sweep or replication may expand to.
const MaxSeeds = harness.MaxSeeds

// Sweep is a grid of experiment runs: experiment ids × seeds × scales ×
// named knobs. Expand it with Jobs and run it with RunParallel, or use
// RunSweep for the whole pipeline.
type Sweep = harness.Sweep

// Job is one experiment execution within a sweep.
type Job = harness.Job

// JobResult pairs a job with its outcome.
type JobResult = harness.JobResult

// Report is an aggregated sweep: per-scenario mean/stddev/95%-CI metrics
// and majority-vote shape verdicts, exportable as JSON or CSV.
type Report = harness.Report

// Runner is the harness worker pool for custom registries.
type Runner = harness.Runner

// RunParallel executes jobs against the paper registry on a worker pool
// (workers <= 0 means GOMAXPROCS) and returns results in job order.
func RunParallel(jobs []Job, workers int) ([]JobResult, error) {
	reg, err := experiments.Registry()
	if err != nil {
		return nil, err
	}
	return harness.RunParallel(reg, jobs, workers), nil
}

// RunSweep validates and expands the sweep, runs it in parallel, and
// aggregates the replications into a Report. The same sweep produces a
// byte-identical Report.JSON() at any worker count.
func RunSweep(s Sweep, workers int) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	results, err := RunParallel(s.Jobs(), workers)
	if err != nil {
		return nil, err
	}
	return harness.Aggregate(results), nil
}

// Aggregate collapses job results into a Report, merging replications of
// the same scenario across seeds.
func Aggregate(results []JobResult) *Report {
	return harness.Aggregate(results)
}

// GroupView is the report-oriented aggregation view: a Report group plus
// the artifacts of its lowest-seed replication.
type GroupView = harness.GroupView

// AggregateView collapses job results into report-oriented group views.
func AggregateView(results []JobResult) []GroupView {
	return harness.AggregateView(results)
}

// ScenarioKey renders the canonical identity replications aggregate on
// (experiment id + scale + knob assignment); it equals Group.Key for the
// group those runs merge into, so sweep output can be indexed by the
// scenarios that were submitted. The report manifest's claims carry these
// same keys.
func ScenarioKey(experimentID string, scale float64, params map[string]float64) string {
	return harness.ScenarioKey(experimentID, scale, params)
}

// ParseSeeds parses a seed list specification such as "1..10" or "1,3,9".
func ParseSeeds(spec string) ([]int64, error) {
	return harness.ParseSeeds(spec)
}

// ParseScales parses a comma-separated list of positive scale factors,
// e.g. "0.25,0.5,1".
func ParseScales(spec string) ([]float64, error) {
	return harness.ParseScales(spec)
}

// ParseParam parses one knob specification "name=v1,v2,...".
func ParseParam(spec string) (string, []float64, error) {
	return harness.ParseParam(spec)
}

// ---------------------------------------------------------------------------
// Report — the claim-traceability document tree: markdown and HTML
// renderings, SVG figures, the SHA-256 manifest with per-claim verdicts,
// and the manifest comparator behind `report -diff`.
// ---------------------------------------------------------------------------

// ReportOptions configures reproduction-report generation: experiment
// ids, replication seeds, workload scale, knob pins, layer toggles
// (HTML, Sensitivity, Resources), and harness worker count (the latter
// never affects the generated bytes).
type ReportOptions = report.Options

// ReportTree is a generated reproduction report: a deterministic document
// tree (REPORT.md, per-experiment pages, SVG figures, manifest.json with
// content hashes and per-claim verdicts) plus summary counters. Walk and
// Open stream artifacts in memory; WriteDir materializes the tree.
type ReportTree = report.Tree

// ReportFile is one artifact of a ReportTree.
type ReportFile = report.File

// Manifest is the parsed form of a report tree's manifest.json: the
// scenario identity, one verdict record per claim, and every artifact by
// content hash.
type Manifest = report.Manifest

// ManifestClaim is one scenario's verdict record within a Manifest.
type ManifestClaim = report.ManifestClaim

// ParseManifest decodes a manifest.json previously written by report
// generation.
func ParseManifest(data []byte) (*Manifest, error) {
	return report.ParseManifest(data)
}

// GenerateReport runs the selected experiments across the seed set on the
// harness worker pool and renders the reproduction report. Equal options
// produce byte-identical trees at any worker count.
func GenerateReport(opts ReportOptions) (*ReportTree, error) {
	reg, err := experiments.Registry()
	if err != nil {
		return nil, err
	}
	return report.Generate(reg, opts)
}

// ReportDiff is the outcome of comparing two manifests (verdict flips,
// metric drifts, scenario set changes) or two soak drift documents
// (envelope breaches). Failing reports whether a gate should fail:
// verdict flips and envelope breaches fail; drift is informational.
type ReportDiff = report.Diff

// DiffDocs compares two serialized documents, auto-detecting their kind:
// report manifests are compared claim by claim, nightly-soak drift
// documents bound by bound. This is the comparator behind
// `decentsim report -diff`.
func DiffDocs(oldData, newData []byte) (*ReportDiff, error) {
	return report.DiffDocs(oldData, newData)
}

// ---------------------------------------------------------------------------
// Serve — one generated report tree behind an HTTP API.
// ---------------------------------------------------------------------------

// ReportHandler serves tree over HTTP: /report (index.html),
// /report/{path...} (any artifact), /experiments/{id} (a per-experiment
// HTML page) and /healthz. Generate the tree with ReportOptions.HTML set
// so the HTML routes resolve; the responses are the tree's bytes.
func ReportHandler(tree *ReportTree) http.Handler {
	return serve.Handler(tree)
}
