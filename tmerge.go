// Package tmerge is a Go implementation of TMerge — "Track Merging for
// Effective Video Query Processing" (Chao, Chen, Koudas, Yu — ICDE 2023).
//
// Object trackers fragment a single physical object's trajectory into
// several shorter tracks ("polyonymous tracks") under occlusion and
// glare, which silently breaks downstream video queries that key on track
// identity. TMerge is a Thompson-sampling multi-armed bandit that, per
// ingestion window, identifies the track pairs most likely to be
// fragments of the same object while invoking the expensive ReID distance
// oracle as few times as possible; confirmed pairs are then merged under
// one identity.
//
// The package re-exports the library's public surface:
//
//   - selection algorithms: NewTMerge (the contribution), NewBaseline,
//     NewPS, NewLCB, and their batched variants;
//   - the ingestion pipeline RunPipeline (window partitioning per §II of
//     the paper, candidate selection, identity rewriting);
//   - the ReID oracle (NewModel, NewOracle) and compute devices (NewCPU,
//     NewAccelerator) it runs on;
//   - the tracking substrate (SORT, DeepSORT, Tracktor) and the scene
//     simulator / dataset profiles used for evaluation;
//   - evaluation: identity metrics, polyonymous-pair derivation, and the
//     Count / Co-occurrence query engine of the paper's §V-H.
//
// Quickstart:
//
//	profile := tmerge.MOT17Like(42)
//	profile.NumVideos = 1
//	ds, _ := profile.Generate()
//	v := ds.Videos[0]
//
//	tracks := tmerge.Tracktor().Track(v.Detections)
//	oracle := tmerge.NewOracle(tmerge.NewModel(7, tmerge.AppearanceDim),
//		tmerge.NewCPU(tmerge.DefaultCPUCost))
//	res := tmerge.RunPipeline(tracks, v.NumFrames, oracle, tmerge.PipelineConfig{
//		K:         0.05,
//		Algorithm: tmerge.NewTMerge(tmerge.DefaultTMergeConfig(1)),
//	})
//	fmt.Println(res.REC, res.Merged.Len())
//
// See DESIGN.md for the substitutions that replace the paper's CV stack
// (real video, deep trackers, OSNet, GPU) with synthetic substrates, and
// EXPERIMENTS.md for the per-figure reproduction record.
package tmerge

import (
	"io"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/ingress"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// Core data model.
type (
	// BBox is one detection of one object in one frame.
	BBox = video.BBox
	// BBoxID uniquely identifies a bounding box (feature-cache key).
	BBoxID = video.BBoxID
	// FrameIndex identifies a frame within a video.
	FrameIndex = video.FrameIndex
	// ObjectID is a ground-truth object identity (evaluation only).
	ObjectID = video.ObjectID
	// ClassID is a detected object class (0 in single-class settings).
	ClassID = video.ClassID
	// TrackID is a tracker-assigned track identifier.
	TrackID = video.TrackID
	// Track is a sequence of BBoxes under one tracker-assigned ID.
	Track = video.Track
	// TrackSet is a collection of tracks indexed by ID.
	TrackSet = video.TrackSet
	// Window is one half-overlapping ingestion window.
	Window = video.Window
	// PairKey identifies an unordered track pair.
	PairKey = video.PairKey
	// Pair is one candidate track pair with its gap features.
	Pair = video.Pair
	// PairSet is the candidate pair universe Pc of one window.
	PairSet = video.PairSet
	// Rect is an axis-aligned bounding rectangle.
	Rect = geom.Rect
	// Point is a 2-D point in frame coordinates.
	Point = geom.Point
)

// NewTrackSet builds a TrackSet from tracks (IDs must be unique).
func NewTrackSet(tracks []*Track) *TrackSet { return video.NewTrackSet(tracks) }

// MakePairKey returns the canonical key for the unordered pair {a, b}.
func MakePairKey(a, b TrackID) PairKey { return video.MakePairKey(a, b) }

// BuildPairSet constructs Pc per Equation (1) of the paper.
func BuildPairSet(w Window, cur, prev []*Track) *PairSet { return video.BuildPairSet(w, cur, prev) }

// Partition splits a video into half-overlapping windows of length L.
func Partition(numFrames, L int) []Window { return video.Partition(numFrames, L) }

// Recall computes REC (Equation 3) of a selection against a truth set.
func Recall(selected []PairKey, truth map[PairKey]bool) float64 {
	return video.Recall(selected, truth)
}

// Selection algorithms.
type (
	// Algorithm selects the top-⌈K·|Pc|⌉ polyonymous pair candidates.
	Algorithm = core.Algorithm
	// TMerge is the paper's Thompson-sampling algorithm (Algorithm 2).
	TMerge = core.TMerge
	// TMergeConfig parameterises TMerge.
	TMergeConfig = core.TMergeConfig
	// TMergeDiagnostics reports what happened inside a Select call.
	TMergeDiagnostics = core.TMergeDiagnostics
	// Baseline is the exhaustive Algorithm 1.
	Baseline = core.Baseline
	// PS is the stratified proportional-sampling baseline.
	PS = core.PS
	// LCB is the lower-confidence-bound bandit baseline.
	LCB = core.LCB
	// Merger rewrites track identities from confirmed pairs (union-find).
	Merger = core.Merger
	// PipelineConfig configures one ingestion pass.
	PipelineConfig = core.PipelineConfig
	// PipelineResult is the outcome of an ingestion pass.
	PipelineResult = core.PipelineResult
	// WindowReport describes the processing of one window.
	WindowReport = core.WindowReport
)

// DefaultTMergeConfig returns the paper's default TMerge configuration
// (τmax = 10,000, thr_S = 200, BetaInit and ULB enabled).
func DefaultTMergeConfig(seed uint64) TMergeConfig { return core.DefaultTMergeConfig(seed) }

// NewTMerge returns a TMerge instance.
func NewTMerge(cfg TMergeConfig) *TMerge { return core.NewTMerge(cfg) }

// NewBaseline returns the exhaustive baseline (BL).
func NewBaseline() *Baseline { return core.NewBaseline() }

// NewBaselineB returns the batched baseline (BL-B).
func NewBaselineB(batch int) *Baseline { return core.NewBaselineB(batch) }

// NewPS returns proportional sampling with proportion eta.
func NewPS(eta float64, seed uint64) *PS { return core.NewPS(eta, seed) }

// NewPSB returns batched proportional sampling (PS-B).
func NewPSB(eta float64, batch int, seed uint64) *PS { return core.NewPSB(eta, batch, seed) }

// NewLCB returns the lower-confidence-bound bandit.
func NewLCB(tauMax int, seed uint64) *LCB { return core.NewLCB(tauMax, seed) }

// NewLCBB returns LCB-B (accelerator execution; cannot batch across
// iterations).
func NewLCBB(tauMax int, seed uint64) *LCB { return core.NewLCBB(tauMax, seed) }

// NewMerger returns an empty identity merger.
func NewMerger() *Merger { return core.NewMerger() }

// RunPipeline executes the identify-and-merge ingestion pass of §II.
func RunPipeline(tracks *TrackSet, numFrames int, oracle *Oracle, cfg PipelineConfig) *PipelineResult {
	return core.RunPipeline(tracks, numFrames, oracle, cfg)
}

// ReID oracle and devices.
type (
	// Model is the simulated ReID embedder.
	Model = reid.Model
	// Oracle computes normalised BBox pair distances with caching and
	// cost accounting.
	Oracle = reid.Oracle
	// OracleStats counts the oracle's work.
	OracleStats = reid.Stats
	// Device executes ReID submissions and charges their modeled cost.
	Device = device.Device
	// CostModel is the virtual cost charged per submission.
	CostModel = device.CostModel
)

// Default cost models (see internal/device for calibration notes).
var (
	// DefaultCPUCost is the serial CPU cost model.
	DefaultCPUCost = device.DefaultCPU
	// DefaultAcceleratorCost is the batch accelerator cost model.
	DefaultAcceleratorCost = device.DefaultAccelerator
)

// NewModel constructs a ReID model with deterministic weights.
func NewModel(seed uint64, inDim int) *Model { return reid.NewModel(seed, inDim) }

// NewOracle returns a distance oracle executing on dev.
func NewOracle(model *Model, dev Device) *Oracle { return reid.NewOracle(model, dev) }

// NewCPU returns a serial device with the given cost model.
func NewCPU(model CostModel) Device { return device.NewCPU(model) }

// NewAccelerator returns a batch device (workers = 0 means GOMAXPROCS).
func NewAccelerator(model CostModel, workers int) Device {
	return device.NewAccelerator(model, workers)
}

// Tracking substrate.
type (
	// Tracker converts per-frame detections into tracks.
	Tracker = track.Tracker
	// TrackerConfig parameterises the SORT-family engine.
	TrackerConfig = track.Config
	// TrackerEngine is the shared SORT-family implementation.
	TrackerEngine = track.Engine
)

// SORT returns the classic SORT preset (fragments most).
func SORT() *TrackerEngine { return track.SORT() }

// DeepSORT returns the appearance-augmented DeepSORT preset.
func DeepSORT() *TrackerEngine { return track.DeepSORT() }

// Tracktor returns the Tracktor preset (fragments least).
func Tracktor() *TrackerEngine { return track.Tracktor() }

// NewTrackerEngine returns a tracking engine for a custom configuration.
func NewTrackerEngine(cfg TrackerConfig) *TrackerEngine { return track.NewEngine(cfg) }

// Scene simulation and datasets.
type (
	// SceneConfig parameterises a synthetic scene.
	SceneConfig = synth.Config
	// Video is a generated scene: detections plus exact ground truth.
	Video = synth.Video
	// DatasetProfile describes how to generate one synthetic dataset.
	DatasetProfile = dataset.Profile
	// Dataset is a generated collection of videos.
	Dataset = dataset.Dataset
)

// AppearanceDim is the observation dimensionality shared by the dataset
// profiles and the default ReID model.
const AppearanceDim = dataset.AppearanceDim

// GenerateScene runs the simulator for one scene configuration.
func GenerateScene(cfg SceneConfig) (*Video, error) { return synth.Generate(cfg) }

// MOT17Like returns the MOT-17 stand-in dataset profile.
func MOT17Like(seed uint64) DatasetProfile { return dataset.MOT17Like(seed) }

// KITTILike returns the KITTI stand-in dataset profile.
func KITTILike(seed uint64) DatasetProfile { return dataset.KITTILike(seed) }

// PathTrackLike returns the PathTrack stand-in dataset profile.
func PathTrackLike(seed uint64) DatasetProfile { return dataset.PathTrackLike(seed) }

// SaveDataset writes a dataset to disk as gzip-compressed JSON.
func SaveDataset(ds *Dataset, path string) error { return dataset.Save(ds, path) }

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) { return dataset.Load(path) }

// Evaluation.
type (
	// IdentityMetrics holds IDF1/IDP/IDR.
	IdentityMetrics = motmetrics.IdentityMetrics
	// CLEARMetrics holds CLEAR-MOT event counts.
	CLEARMetrics = motmetrics.CLEARMetrics
	// CountQuery counts long-dwelling objects (§V-H).
	CountQuery = query.CountQuery
	// CoOccurQuery finds jointly-present object groups (§V-H).
	CoOccurQuery = query.CoOccurQuery
)

// Identity computes IDF1/IDP/IDR between GT and hypothesis tracks.
func Identity(gt, hyp *TrackSet) IdentityMetrics { return motmetrics.Identity(gt, hyp) }

// CLEARMOT computes CLEAR-MOT event counts.
func CLEARMOT(gt, hyp *TrackSet) CLEARMetrics { return motmetrics.CLEAR(gt, hyp) }

// PolyonymousPairs derives the ground-truth polyonymous pair set P*c.
func PolyonymousPairs(ps *PairSet) map[PairKey]bool { return motmetrics.PolyonymousPairs(ps) }

// PolyonymousRate returns |P*c| / |Pc|.
func PolyonymousRate(ps *PairSet) float64 { return motmetrics.PolyonymousRate(ps) }

// Streaming ingestion (package ingest).
type (
	// Ingestor is an online ingestion session: push detections frame by
	// frame; windows are selected and merged as the stream passes them.
	Ingestor = ingest.Ingestor
	// IngestConfig parameterises a streaming session.
	IngestConfig = ingest.Config
	// IngestWindowResult reports one processed window.
	IngestWindowResult = ingest.WindowResult
	// Inspector filters selected candidates before merging (the paper's
	// human-inspection step as a callback).
	Inspector = ingest.Inspector
	// HistoryConfig enables the session's log-structured on-disk history
	// (IngestConfig.History): segmented journal, tiered bounded-memory
	// view, log-referencing checkpoints, and time-travel Ingestor.AsOf
	// (DESIGN.md §16).
	HistoryConfig = ingest.HistoryConfig
)

// NewIngestor returns a streaming ingestion session.
func NewIngestor(engine *TrackerEngine, oracle *Oracle, cfg IngestConfig) (*Ingestor, error) {
	return ingest.New(engine, oracle, cfg)
}

// Track metadata store (package trackdb).
type (
	// TrackStore is a queryable track-metadata database with an interval
	// index and in-place identity merging.
	TrackStore = trackdb.Store
	// TrackStoreStats summarises a store's contents.
	TrackStoreStats = trackdb.Stats
)

// NewTrackStore returns an empty track store.
func NewTrackStore() *TrackStore { return trackdb.New() }

// TrackStoreFrom builds a store holding the given tracks.
func TrackStoreFrom(ts *TrackSet) *TrackStore { return trackdb.FromTrackSet(ts) }

// K calibration (§III).
type (
	// LabelledWindow pairs a window's candidates with its ground truth.
	LabelledWindow = core.LabelledWindow
	// KCalibration is the outcome of CalibrateK.
	KCalibration = core.KCalibration
)

// CalibrateK finds the smallest K achieving the target recall on a
// labelled sample of windows (§III's calibration procedure).
func CalibrateK(windows []LabelledWindow, oracle *Oracle, targetREC float64, grid []float64) (KCalibration, error) {
	return core.CalibrateK(windows, oracle, targetREC, grid)
}

// SuggestTauMax estimates a TMerge iteration budget from the pair
// universe size.
func SuggestTauMax(ps *PairSet) int { return core.SuggestTauMax(ps) }

// Additional temporal queries (package query).
type (
	// RegionQuery finds objects dwelling in a frame region.
	RegionQuery = query.RegionQuery
	// PrecedesQuery finds sequenced-appearance object pairs.
	PrecedesQuery = query.PrecedesQuery
)

// UMA returns the UMA tracker preset.
func UMA() *TrackerEngine { return track.UMA() }

// CenterTrack returns the CenterTrack tracker preset.
func CenterTrack() *TrackerEngine { return track.CenterTrack() }

// Hyper-parameter search (§V-F).
type (
	// GridSearchConfig parameterises the (L, thr_S) grid search.
	GridSearchConfig = core.GridSearchConfig
	// GridSearchResult reports the best point and the full grid.
	GridSearchResult = core.GridSearchResult
)

// GridSearch evaluates (L, thr_S) combinations on a labelled sequence and
// returns the best-recall point, the paper's §V-F calibration procedure.
func GridSearch(tracks *TrackSet, numFrames int, oracle *Oracle, cfg GridSearchConfig) (GridSearchResult, error) {
	return core.GridSearch(tracks, numFrames, oracle, cfg)
}

// SequenceWindow extracts a contiguous run of up to n boxes from a track,
// centred on index around — the sampling primitive for sequence-input
// ReID (the paper's footnote 2 variant; see Oracle.SequenceDistance).
func SequenceWindow(t *Track, around, n int) []BBox { return reid.SequenceWindow(t, around, n) }

// HighwayLike returns a vehicle-surveillance dataset profile (wide scene,
// fast directional motion — the paper's "cars on highways" motivation).
func HighwayLike(seed uint64) DatasetProfile { return dataset.HighwayLike(seed) }

// Pair-universe pre-filtering (extension; see internal/video).
type (
	// PairFilter decides whether a candidate pair enters the universe.
	PairFilter = video.PairFilter
)

// TemporalOverlapFilter rejects pairs whose tracks coexist for more than
// maxOverlap frames (one object cannot appear twice in a frame).
func TemporalOverlapFilter(maxOverlap int) PairFilter {
	return video.TemporalOverlapFilter(maxOverlap)
}

// BuildPairSetFiltered is BuildPairSet with a pre-filter.
func BuildPairSetFiltered(w Window, cur, prev []*Track, keep PairFilter) *PairSet {
	return video.BuildPairSetFiltered(w, cur, prev, keep)
}

// Fault tolerance (packages device and fault). Real ReID backends fail —
// transient errors, latency spikes, outages — and the paper's cost model
// assumes they don't. This layer lets a deployment (and the test suite)
// run the pipeline over an unreliable device without stalling or dropping
// windows: retries with backoff mask transient faults, a circuit breaker
// stops hammering a dead backend, and windows that still cannot reach the
// oracle degrade to the BetaInit spatial prior instead of failing.
type (
	// FallibleDevice is a Device whose submissions can fail (TrySubmit).
	FallibleDevice = device.Fallible
	// ResilientDevice wraps a fallible device with retry, exponential
	// backoff with jitter, and a circuit breaker.
	ResilientDevice = device.ResilientDevice
	// RetryPolicy bounds the per-submission retry loop.
	RetryPolicy = device.RetryPolicy
	// BreakerConfig parameterises the circuit breaker.
	BreakerConfig = device.BreakerConfig
	// BreakerState is the breaker's closed / open / half-open state.
	BreakerState = device.BreakerState
	// ResilientCounters counts retries, failures, trips, and probes.
	ResilientCounters = device.ResilientCounters
	// Unavailable is the panic payload carried through the infallible
	// Submit path when a submission cannot be completed.
	Unavailable = device.Unavailable
	// FaultConfig parameterises a fault-injecting device wrapper.
	FaultConfig = fault.Config
	// Flaky is a deterministic fault-injecting Device wrapper.
	Flaky = fault.Flaky
	// FaultCounters counts injected faults by kind.
	FaultCounters = fault.Counters
	// FaultSchedule scripts outage windows by submission index.
	FaultSchedule = fault.Schedule
	// Outage is one scripted outage window [From, To).
	Outage = fault.Outage
	// Spatial ranks candidates by the BetaInit spatial prior alone — the
	// degraded-mode fallback, also usable as a zero-cost baseline.
	Spatial = core.Spatial
)

// Breaker states.
const (
	// BreakerClosed admits submissions normally.
	BreakerClosed = device.BreakerClosed
	// BreakerOpen rejects submissions until the cooldown elapses.
	BreakerOpen = device.BreakerOpen
	// BreakerHalfOpen admits a single probe submission whose outcome
	// re-closes or re-opens the breaker.
	BreakerHalfOpen = device.BreakerHalfOpen
)

// Fault sentinels: ErrDeviceUnavailable is wrapped by every ResilientDevice
// failure; the fault package's sentinels classify injected faults.
var (
	// ErrDeviceUnavailable wraps every ResilientDevice failure.
	ErrDeviceUnavailable = device.ErrUnavailable
	// ErrFaultTransient marks an injected transient submission failure.
	ErrFaultTransient = fault.ErrTransient
	// ErrFaultTimeout marks an injected submission deadline overrun.
	ErrFaultTimeout = fault.ErrTimeout
	// ErrFaultOutage marks a submission landing in a scripted outage
	// window (or after a crash without restore).
	ErrFaultOutage = fault.ErrOutage
)

// NewResilientDevice wraps inner with retry + breaker fault handling.
// Zero-valued config fields take documented defaults; seed drives the
// backoff jitter.
func NewResilientDevice(inner Device, retry RetryPolicy, breaker BreakerConfig, seed uint64) *ResilientDevice {
	return device.NewResilientDevice(inner, retry, breaker, seed)
}

// DefaultRetryPolicy returns the default retry policy.
func DefaultRetryPolicy() RetryPolicy { return device.DefaultRetryPolicy() }

// DefaultBreakerConfig returns the default breaker configuration.
func DefaultBreakerConfig() BreakerConfig { return device.DefaultBreakerConfig() }

// NewFlaky wraps inner with deterministic seeded fault injection.
func NewFlaky(inner Device, cfg FaultConfig) *Flaky { return fault.NewFlaky(inner, cfg) }

// NewFaultSchedule builds an outage schedule; outages are half-open
// [From, To) ranges of device submission indices.
func NewFaultSchedule(outages ...Outage) *FaultSchedule { return fault.NewSchedule(outages...) }

// NewSpatial returns the spatial-prior ranker — the zero-cost algorithm
// used for degraded-mode selection, also usable as a baseline.
func NewSpatial() *Spatial { return core.NewSpatial() }

// TryRunPipeline is RunPipeline with configuration validation and
// degraded-mode reporting instead of panics.
func TryRunPipeline(tracks *TrackSet, numFrames int, oracle *Oracle, cfg PipelineConfig) (*PipelineResult, error) {
	return core.TryRunPipeline(tracks, numFrames, oracle, cfg)
}

// Durability (packages checkpoint and ingest). A streaming session can be
// checkpointed between frames — tracker hypotheses, identity map, ReID
// cache and counters, device resilience state, quarantine ledger, and
// cursors — into a versioned, checksummed, self-contained byte slice,
// and later restored into a freshly assembled pipeline. Replay is
// deterministic: a session killed at any frame and restored from its
// last checkpoint produces, after replaying the remaining frames,
// bit-identical window results and merged tracks to one that never
// crashed. Hostile detections (non-finite geometry, mis-indexed frames)
// never reach tracker state; they are quarantined into a capped
// dead-letter buffer with per-reason counters.
type (
	// RejectedDetection is one quarantined input with its reject reason.
	RejectedDetection = ingest.RejectedDetection
	// QuarantineReport is a snapshot of the quarantine ledger.
	QuarantineReport = ingest.QuarantineReport
)

// Checkpoint envelope identity: bytes whose format/version do not match
// are refused before any state is touched.
const (
	// CheckpointFormat is the magic format string of the envelope.
	CheckpointFormat = checkpoint.Format
	// CheckpointVersion is the envelope version this build writes and
	// accepts.
	CheckpointVersion = checkpoint.Version
)

// Quarantine reject reasons (Ingestor.Quarantine().Counts keys).
const (
	// RejectNonFiniteGeometry: a detection rect contained NaN or ±Inf.
	RejectNonFiniteGeometry = ingest.ReasonNonFiniteGeometry
	// RejectNonPositiveSize: a detection rect had width or height <= 0.
	RejectNonPositiveSize = ingest.ReasonNonPositiveSize
	// RejectNonFiniteObservation: an appearance vector contained NaN or
	// ±Inf.
	RejectNonFiniteObservation = ingest.ReasonNonFiniteObservation
	// RejectFrameMismatch: a detection's frame differs from the frame it
	// was pushed with.
	RejectFrameMismatch = ingest.ReasonFrameMismatch
	// RejectFrameRegressed: a frame arrived behind the forward-only
	// cursor.
	RejectFrameRegressed = ingest.ReasonFrameRegressed
	// RejectFrameDuplicate: a frame index was pushed twice.
	RejectFrameDuplicate = ingest.ReasonFrameDuplicate
)

// DefaultQuarantineCap bounds the dead-letter buffer when IngestConfig
// does not choose a cap.
const DefaultQuarantineCap = ingest.DefaultQuarantineCap

// RestoreIngestor reconstructs a streaming session from bytes produced
// by Ingestor.Checkpoint. The supplied engine, oracle, and configuration
// must assemble a pipeline equivalent to the checkpointed one; mismatches
// and corrupt bytes are rejected with descriptive errors.
func RestoreIngestor(engine *TrackerEngine, oracle *Oracle, cfg IngestConfig, data []byte) (*Ingestor, error) {
	return ingest.Restore(engine, oracle, cfg, data)
}

// Streaming incremental query engine (packages core, trackdb, query,
// ingest). The merger journals every identity merge as an ordered event;
// a LiveView materialises track metadata from per-window extensions plus
// those events; incremental operators fold view changes into standing
// query answers, emitting asserts and retractions instead of recomputing
// from scratch. Subscribe standing queries on an Ingestor to receive
// per-window deltas.
type (
	// MergeEvent is one entry in the merger's ordered, replayable
	// journal: the pair that merged, the canonical groups each side
	// belonged to beforehand, and the surviving canonical identity.
	MergeEvent = core.MergeEvent
	// LiveView is an incrementally maintained materialisation of the
	// merged track metadata — the streaming counterpart of a TrackStore
	// built after the fact. It is the only view type: the one an
	// Ingestor's standing queries read, and the one Ingestor.AsOf
	// rebuilds from the history log. A history session's view keeps old
	// tracks in a cold tier paged back from that log.
	LiveView = trackdb.LiveView
	// LiveViewState is a LiveView snapshot for checkpointing.
	LiveViewState = trackdb.ViewState
	// TrackView is the read interface incremental operators query;
	// LiveView implements it.
	TrackView = query.TrackView
	// IncrementalOperator is a standing query maintained under
	// streaming updates: Apply folds view changes into the answer and
	// returns the resulting deltas.
	IncrementalOperator = query.Incremental
	// QueryDelta is one incremental answer change: an asserted or
	// retracted result row.
	QueryDelta = query.Delta
	// QueryDeltaKind distinguishes asserts from retractions.
	QueryDeltaKind = query.DeltaKind
	// OperatorState is an incremental operator snapshot for
	// checkpointing.
	OperatorState = query.OperatorState
	// OperatorStats counts the predicate work an operator performed.
	OperatorStats = query.OpStats
	// WindowQueryDeltas carries one subscription's deltas for one
	// committed window.
	WindowQueryDeltas = ingest.QueryDeltas
)

// Delta kinds emitted by incremental operators.
const (
	// DeltaAssert marks a row entering the answer.
	DeltaAssert = query.Assert
	// DeltaRetract marks a row leaving the answer — typically because a
	// merge coalesced the identities it was built from.
	DeltaRetract = query.Retract
)

// NewLiveView returns an empty live track view at event cursor zero.
func NewLiveView() *LiveView { return trackdb.NewLiveView() }

// RestoreLiveView rebuilds a live view from a snapshot, rejecting
// corrupt or inconsistent state.
func RestoreLiveView(st LiveViewState) (*LiveView, error) { return trackdb.RestoreView(st) }

// NewIncCount returns an incremental operator maintaining q's answer.
func NewIncCount(q CountQuery) IncrementalOperator { return query.NewIncCount(q) }

// NewIncRegion returns an incremental operator maintaining q's answer.
func NewIncRegion(q RegionQuery) IncrementalOperator { return query.NewIncRegion(q) }

// NewIncCoOccur returns an incremental operator maintaining q's answer.
// It panics like CoOccurQuery.Answer when q is malformed.
func NewIncCoOccur(q CoOccurQuery) IncrementalOperator { return query.NewIncCoOccur(q) }

// NewIncPrecedes returns an incremental operator maintaining q's answer.
func NewIncPrecedes(q PrecedesQuery) IncrementalOperator { return query.NewIncPrecedes(q) }

// HistoricalAnswer evaluates a freshly constructed incremental operator
// against a time-travel view (Ingestor.AsOf / StreamManager.AsOf) and
// returns the query's result rows at that cut — equal to the batch
// answer over the merged tracks at the moment the cut's window closed.
func HistoricalAnswer(v TrackView, op IncrementalOperator) [][]TrackID {
	return query.HistoricalAnswer(v, op)
}

// WriteMergeEventLog writes a merge-event journal as line-delimited
// JSON, one event per line.
func WriteMergeEventLog(w io.Writer, events []MergeEvent) error {
	return core.WriteEventLog(w, events)
}

// ReadMergeEventLog decodes a journal written by WriteMergeEventLog,
// rejecting malformed lines, invalid events, and sequence gaps.
func ReadMergeEventLog(r io.Reader) ([]MergeEvent, error) { return core.ReadEventLog(r) }

// ReplayMergeEvents reconstructs a merger from a complete event journal,
// validating every event against the evolving group structure.
func ReplayMergeEvents(events []MergeEvent) (*Merger, error) { return core.ReplayEvents(events) }

// Multi-stream serving (package serve). A StreamManager owns N per-stream
// ingestion sessions sharded across a bounded shared worker pool — the
// substrate a tmerged deployment multiplexes camera streams over.
// Admission control bounds the fleet, backpressure bounds each stream,
// and a supervisor recovers crashed streams from their latest periodic
// checkpoint with bit-identical resumption (DESIGN.md §12).
type (
	// StreamManager schedules registered streams over a shared worker
	// pool with admission control, backpressure, crash supervision, and
	// drain-to-checkpoint shutdown.
	StreamManager = serve.Manager
	// StreamManagerConfig parameterises a StreamManager.
	StreamManagerConfig = serve.Config
	// StreamSpec registers one stream with a StreamManager.
	StreamSpec = serve.StreamSpec
	// StreamPipelineFactory builds one stream's fully isolated
	// tracker-engine/oracle pipeline; called at admission and again at
	// every crash recovery.
	StreamPipelineFactory = serve.PipelineFactory
	// StreamHealth is a stream's supervision state.
	StreamHealth = serve.Health
	// ServeStreamStatus is one stream's health snapshot, the unit of
	// StreamManager.Snapshot.
	ServeStreamStatus = serve.StreamStatus
	// StreamHistoryRoot gives a StreamManager a per-stream history
	// directory tree (StreamManagerConfig.History): each registered
	// stream journals under <Dir>/<stream id> and serves time travel via
	// StreamManager.AsOf (DESIGN.md §16).
	StreamHistoryRoot = serve.HistoryRoot
)

// Stream supervision states, in escalation order.
const (
	// StreamPending awaits admission under the window budget.
	StreamPending = serve.Pending
	// StreamHealthy is schedulable and processing normally.
	StreamHealthy = serve.Healthy
	// StreamDegraded is schedulable but selecting on the spatial prior.
	StreamDegraded = serve.Degraded
	// StreamQuarantined awaits (or failed) crash recovery.
	StreamQuarantined = serve.Quarantined
	// StreamRecovering is being restored from checkpoint.
	StreamRecovering = serve.Recovering
	// StreamStopped finished processing.
	StreamStopped = serve.Stopped
)

// Typed serving-layer errors; match with errors.Is.
var (
	// ErrServeOverloaded reports a shed Push: the stream's bounded frame
	// queue is full and the manager is configured to shed rather than
	// block. Over the network ingress this surfaces as HTTP 429 with a
	// Retry-After hint.
	ErrServeOverloaded = serve.ErrOverloaded
	// ErrServeNotAdmitted reports an operation on a stream still parked
	// in the admission queue.
	ErrServeNotAdmitted = serve.ErrNotAdmitted
	// ErrServeStopped reports an operation against a shut-down manager.
	ErrServeStopped = serve.ErrStopped
	// ErrServeDraining reports a Push or Register against a manager that
	// has begun a Drain: intake is closed while queued frames flush to a
	// final checkpoint (HTTP 503 over ingress).
	ErrServeDraining = serve.ErrDraining
	// ErrServeStreamClosed reports a Push or Finish against a stream
	// whose input was already closed.
	ErrServeStreamClosed = serve.ErrStreamClosed
	// ErrServeUnknownStream reports an operation naming no registered
	// stream.
	ErrServeUnknownStream = serve.ErrUnknownStream
	// ErrServeDuplicateStream reports a registration reusing a live
	// stream ID.
	ErrServeDuplicateStream = serve.ErrDuplicateStream
)

// NewStreamManager returns a StreamManager; zero-valued config fields
// take documented defaults. Shut it down with Shutdown (abandons
// in-flight work) or Drain (flushes every stream to a final checkpoint).
func NewStreamManager(cfg StreamManagerConfig) *StreamManager { return serve.NewManager(cfg) }

// Network ingress (package ingress). The tmerged daemon's HTTP/1.1 +
// NDJSON frame-push boundary over a StreamManager, and a retrying client
// speaking it. Delivery is at-least-once made effectively exactly-once:
// per-stream sequence numbers, a server-side high-water mark, and
// idempotent duplicate discard. Backpressure and admission surface as
// protocol (429 + Retry-After, 503, typed JSON error bodies); SIGTERM in
// tmerged drains every stream to a checkpoint a restarted daemon resumes
// from with bit-identical results (DESIGN.md §13).
type (
	// IngressServer handles the frame-push protocol over a
	// StreamManager; mount Handler on an http.Server.
	IngressServer = ingress.Server
	// IngressServerConfig parameterises an IngressServer.
	IngressServerConfig = ingress.ServerConfig
	// IngressSpecFunc builds each registered stream's pipeline spec from
	// the wire-level registration knobs.
	IngressSpecFunc = ingress.SpecFunc
	// IngressClient is the retrying frame-push client: per-request
	// deadlines, exponential backoff with deterministic seeded jitter,
	// Retry-After honoured, reattach-on-404 after a daemon restart.
	// Every blocking method takes a context.Context that bounds the
	// whole retry loop (per-request deadlines still apply within it).
	IngressClient = ingress.Client
	// IngressClientConfig parameterises an IngressClient.
	IngressClientConfig = ingress.ClientConfig
	// IngressClientStats counts the client's retries, throttles, and
	// reattaches.
	IngressClientStats = ingress.ClientStats
	// IngressRegisterRequest opens (or re-attaches to) a stream.
	IngressRegisterRequest = ingress.RegisterRequest
	// IngressRegisterResponse reports the stream's cursor and resume
	// state.
	IngressRegisterResponse = ingress.RegisterResponse
	// IngressPushRecord is one NDJSON push line: a sequenced frame.
	IngressPushRecord = ingress.PushRecord
	// IngressPushResponse acks the sequence high-water mark.
	IngressPushResponse = ingress.PushResponse
	// IngressFinishResponse carries a finished stream's fingerprint and
	// window counts.
	IngressFinishResponse = ingress.FinishResponse
	// IngressStreamStatus is one stream's wire-level status row.
	IngressStreamStatus = ingress.StreamStatus
	// IngressStatusResponse is the daemon-wide status document.
	IngressStatusResponse = ingress.StatusResponse
	// IngressErrorBody is the typed JSON error body of every non-2xx
	// response.
	IngressErrorBody = ingress.ErrorBody
	// CheckpointStore persists drained stream checkpoints across daemon
	// incarnations.
	CheckpointStore = ingress.Store
	// MemCheckpointStore is an in-memory CheckpointStore (tests,
	// single-incarnation runs).
	MemCheckpointStore = ingress.MemStore
	// DirCheckpointStore is a directory-backed CheckpointStore with
	// atomic writes.
	DirCheckpointStore = ingress.DirStore
)

// NewIngressServer returns an IngressServer over cfg.Serve's manager.
func NewIngressServer(cfg IngressServerConfig) (*IngressServer, error) { return ingress.NewServer(cfg) }

// NewIngressClient returns a retrying frame-push client for one stream.
func NewIngressClient(cfg IngressClientConfig) (*IngressClient, error) { return ingress.NewClient(cfg) }

// NewMemCheckpointStore returns an empty in-memory checkpoint store.
func NewMemCheckpointStore() *MemCheckpointStore { return ingress.NewMemStore() }

// NewDirCheckpointStore returns a checkpoint store rooted at dir,
// creating it if absent; writes are atomic (temp file + rename).
func NewDirCheckpointStore(dir string) (*DirCheckpointStore, error) { return ingress.NewDirStore(dir) }
