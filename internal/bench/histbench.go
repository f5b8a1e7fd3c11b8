package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/histlog"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

// HistBenchConfig pins one log-structured-history benchmark: a
// synthetic long-horizon stream fed straight through the storage spine
// (a trackdb.LiveView with a histlog.Log as its cold store — the layer
// ingest sessions drive), with enough windows that the hot tier must
// stay flat while total track count grows into the millions. The benchmark measures
// bounded-memory behaviour (hot-cell ceiling, heap growth per track),
// compaction traffic, and AsOf time-travel latency, and verifies that
// the reconstructed historical view answers queries identically to the
// live tiered view.
type HistBenchConfig struct {
	// Seed drives the deterministic workload generator.
	Seed uint64
	// Windows is the number of committed windows to stream.
	Windows int
	// WindowLen is the frame length of each window.
	WindowLen int
	// TracksPerWindow raw tracks are born in every window, each living
	// entirely inside it — so each cohort ages past the hot horizon a
	// fixed number of windows later, which is what makes the hot-cell
	// ceiling a sharp, deterministic bound.
	TracksPerWindow int
	// BoxesPerTrack is the number of (distinct-frame) boxes per track.
	BoxesPerTrack int
	// MergesPerWindow merge attempts are made among each window's own
	// cohort (never across windows, so the steady state never rehydrates).
	MergesPerWindow int
	// HotHorizon is the tiering horizon in frames (0 = 4×WindowLen,
	// matching ingest.HistoryConfig's default).
	HotHorizon int
	// WindowsPerSegment is the log's auto-seal threshold
	// (0 = histlog.DefaultWindowsPerSegment).
	WindowsPerSegment int
	// CompactEvery folds sealed raw segments into a base snapshot
	// whenever this many have accumulated (0 never compacts).
	CompactEvery int
	// AsOfProbes is how many time-travel cuts to replay (spread evenly
	// across the retained frame range) after the feed completes.
	AsOfProbes int
	// MaxHeapBytesPerTrack is the heap-growth gate's ceiling: resident
	// bytes per raw track fed, measured end-of-feed against the pre-feed
	// baseline after a forced GC. The cold tier keeps an O(1) summary
	// per track, so growth far above the summary size means full cells
	// stayed resident — the failure mode the tiered view exists to
	// prevent.
	MaxHeapBytesPerTrack float64
	// HeapGateMinTracks is the measurability floor: below this many
	// tracks, GC noise dominates the per-track quotient and the heap
	// gate is skipped (loudly, as an explicit gate_status row).
	HeapGateMinTracks int
	// Dir is the history directory the log writes under. Required.
	Dir string
	// Clock reads wall time for the latency measurements. It must be
	// injected by the caller — cmd/benchrunner is on the determinism
	// allowlist, this package is not. Nil disables wall timing; every
	// structural result and both gates are deterministic without it.
	Clock func() time.Time
}

// DefaultHistBench is the pinned configuration benchrunner's
// "histbench" experiment runs: 2000 windows × 500 tracks = one million
// raw tracks through a 160-frame hot horizon, sealing every 50 windows
// and compacting every 16 sealed segments.
func DefaultHistBench() HistBenchConfig {
	return HistBenchConfig{
		Seed:                 42,
		Windows:              2000,
		WindowLen:            40,
		TracksPerWindow:      500,
		BoxesPerTrack:        2,
		MergesPerWindow:      100,
		WindowsPerSegment:    50,
		CompactEvery:         16,
		AsOfProbes:           4,
		MaxHeapBytesPerTrack: 600,
		HeapGateMinTracks:    100_000,
	}
}

// histBenchExperiment tags the rows in mixed NDJSON streams.
const histBenchExperiment = "hist_memory"

// Gate names the histbench gate_status rows carry.
const (
	// GateHistHotCells bounds the hot tier's resident cell count.
	GateHistHotCells = "hist_hot_cells"
	// GateHistHeapGrowth bounds measured heap growth per track fed.
	GateHistHeapGrowth = "hist_heap_growth"
)

// HistBenchRow is the benchmark's NDJSON result row. Everything except
// the *_ms wall-time fields is a deterministic function of the
// configuration (HeapBytesPerTrack is measured, but gated with the
// measurability floor).
type HistBenchRow struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Windows    int    `json:"windows"`
	WindowLen  int    `json:"window_len"`
	// Tracks is the total raw tracks fed; Boxes the total box
	// extensions journaled; Merges the merge events committed.
	Tracks int `json:"tracks"`
	Boxes  int `json:"boxes"`
	Merges int `json:"merges"`
	// CanonTracks is the live canonical identities at end of feed,
	// split into HotTracks (fully resident) and ColdTracks (summaries).
	CanonTracks int `json:"canon_tracks"`
	HotTracks   int `json:"hot_tracks"`
	ColdTracks  int `json:"cold_tracks"`
	// HotCellsMax is the per-window maximum of resident frame cells;
	// HotCellBudget the deterministic ceiling the gate enforces.
	HotCellsMax   int `json:"hot_cells_max"`
	HotCellBudget int `json:"hot_cell_budget"`
	// Evicted and Rehydrated are the tiered view's lifetime counters.
	// The workload never touches a cohort after its window, so any
	// rehydration means the horizon leaked.
	Evicted    int `json:"evicted"`
	Rehydrated int `json:"rehydrated"`
	// Compactions counts base folds; RetentionFrame is the earliest
	// frame AsOf can still cut at (-1 when never compacted); LogBytes
	// the on-disk footprint of the history directory at end of run.
	Compactions    int   `json:"compactions"`
	RetentionFrame int   `json:"retention_frame"`
	LogBytes       int64 `json:"log_bytes"`
	// HeapBytesPerTrack is the measured end-of-feed heap growth per raw
	// track (-1 when below the measurability floor).
	HeapBytesPerTrack float64 `json:"heap_bytes_per_track"`
	// AsOfProbes time-travel cuts were replayed; AsOfRows sums the
	// historical query rows they answered (a fresh operator bootstrapped
	// over each reconstructed view).
	AsOfProbes int `json:"asof_probes"`
	AsOfRows   int `json:"asof_rows"`
	// Match reports that the final cut's historical answer was
	// bit-identical to the same query bootstrapped over the live tiered
	// view.
	Match bool `json:"match"`
	// Wall-clock measurements, present only when a Clock is injected.
	FeedWallMS float64 `json:"feed_wall_ms,omitempty"`
	AsOfP50MS  float64 `json:"asof_p50_ms,omitempty"`
	AsOfMaxMS  float64 `json:"asof_max_ms,omitempty"`
}

// validate rejects configurations the generator cannot honour.
func (cfg *HistBenchConfig) validate() error {
	if cfg.Dir == "" {
		return fmt.Errorf("bench: histbench needs a history directory")
	}
	if cfg.Windows <= 0 || cfg.TracksPerWindow <= 0 || cfg.BoxesPerTrack <= 0 {
		return fmt.Errorf("bench: histbench windows, tracks per window, and boxes per track must be positive")
	}
	if cfg.WindowLen < cfg.BoxesPerTrack {
		return fmt.Errorf("bench: histbench window length %d cannot hold %d distinct-frame boxes", cfg.WindowLen, cfg.BoxesPerTrack)
	}
	if cfg.HotHorizon != 0 && cfg.HotHorizon < 2*cfg.WindowLen {
		return fmt.Errorf("bench: histbench hot horizon %d is below 2×WindowLen = %d", cfg.HotHorizon, 2*cfg.WindowLen)
	}
	if cfg.MergesPerWindow < 0 || cfg.AsOfProbes < 0 {
		return fmt.Errorf("bench: histbench merges per window and AsOf probes must be >= 0")
	}
	return nil
}

// horizonFrames resolves the hot horizon (the ingest default: 4×L).
func (cfg *HistBenchConfig) horizonFrames() int {
	if cfg.HotHorizon > 0 {
		return cfg.HotHorizon
	}
	return 4 * cfg.WindowLen
}

// hotCellBudget is the deterministic ceiling on resident cells: a
// cohort's tracks all end inside their window, so at most
// ceil(horizon/L)+2 cohorts can be inside the horizon (or awaiting the
// next commit's eviction sweep) at once, each holding at most
// TracksPerWindow×BoxesPerTrack cells (merges can only collapse cells,
// never add them).
func (cfg *HistBenchConfig) hotCellBudget() int {
	cohorts := (cfg.horizonFrames()+cfg.WindowLen-1)/cfg.WindowLen + 2
	return cohorts * cfg.TracksPerWindow * cfg.BoxesPerTrack
}

// readHeap forces a GC and returns the resident heap, so successive
// readings measure live bytes rather than collector timing.
func readHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// histCountQuery is the query the AsOf probes answer: canonical tracks
// with strictly more deduplicated boxes than one raw track carries —
// i.e. exactly the groups the merge stream created.
func histCountQuery(cfg *HistBenchConfig) query.CountQuery {
	return query.CountQuery{MinFrames: cfg.BoxesPerTrack + 1}
}

// RunHistBench streams the synthetic workload through a tiered view
// journaling to a fresh histlog under cfg.Dir — the same feed protocol
// ingest sessions use (extensions, merge events, flush, journal, evict,
// compact) — then measures the memory gates, replays the AsOf probes,
// and returns the result row plus one gate_status row per gate.
func RunHistBench(cfg HistBenchConfig) (HistBenchRow, []GateStatus, error) {
	row := HistBenchRow{
		Experiment:    histBenchExperiment,
		Seed:          cfg.Seed,
		Windows:       cfg.Windows,
		WindowLen:     cfg.WindowLen,
		Tracks:        cfg.Windows * cfg.TracksPerWindow,
		HotCellBudget: cfg.hotCellBudget(),
	}
	if err := cfg.validate(); err != nil {
		return row, nil, err
	}
	log, err := histlog.Open(cfg.Dir, histlog.Options{WindowsPerSegment: cfg.WindowsPerSegment})
	if err != nil {
		return row, nil, err
	}
	if err := log.Reset(); err != nil {
		return row, nil, err
	}
	tier := trackdb.NewLiveView()
	tier.AttachColdStore(log)
	m := core.NewMerger()
	rng := xrand.New(cfg.Seed)
	horizon := video.FrameIndex(cfg.horizonFrames())
	stride := cfg.WindowLen / cfg.BoxesPerTrack
	scratch := make([]histlog.Extend, 0, cfg.TracksPerWindow*cfg.BoxesPerTrack)

	heapBase := readHeap()
	var feedStart time.Time
	if cfg.Clock != nil {
		feedStart = cfg.Clock()
	}

	cursor := 0
	for wi := 0; wi < cfg.Windows; wi++ {
		w := video.Window{
			Index:   wi,
			Start:   video.FrameIndex(wi * cfg.WindowLen),
			End:     video.FrameIndex((wi+1)*cfg.WindowLen - 1),
			Nominal: cfg.WindowLen,
		}
		base := wi * cfg.TracksPerWindow
		scratch = scratch[:0]
		for t := 0; t < cfg.TracksPerWindow; t++ {
			id := video.TrackID(base + t)
			class := video.ClassID(rng.Intn(3))
			for b := 0; b < cfg.BoxesPerTrack; b++ {
				// One box per stride keeps the frames distinct and ascending;
				// integer centers keep the journal lines compact.
				frame := w.Start + video.FrameIndex(b*stride+rng.Intn(stride))
				cx, cy := float64(rng.Intn(1920)), float64(rng.Intn(1080))
				scratch = append(scratch, histlog.Extend{Track: id, Frame: frame, CX: cx, CY: cy, Class: class})
				if err := tier.ExtendCell(id, frame, class, cx, cy); err != nil {
					return row, nil, err
				}
				row.Boxes++
			}
		}
		for k := 0; k < cfg.MergesPerWindow; k++ {
			a := video.TrackID(base + rng.Intn(cfg.TracksPerWindow))
			b := video.TrackID(base + rng.Intn(cfg.TracksPerWindow))
			if a != b {
				m.Merge(video.MakePairKey(a, b))
			}
		}
		events := m.EventsSince(cursor)
		cursor = m.EventCount()
		if err := tier.ApplyEvents(events); err != nil {
			return row, nil, err
		}
		tier.Flush()

		entry := histlog.WindowEntry{Window: w, Events: events}
		if len(scratch) > 0 {
			// The log holds entries until the segment seals; scratch is
			// reused next window, so the entry needs its own copy.
			entry.Extends = append([]histlog.Extend(nil), scratch...)
		}
		if err := log.AppendWindow(entry); err != nil {
			return row, nil, err
		}
		tier.EvictBefore(w.End + 1 - horizon)
		m.TrimEvents(log.SealedSeq())
		if cfg.CompactEvery > 0 && log.SealedRawSegments() >= cfg.CompactEvery {
			if err := log.Compact(); err != nil {
				return row, nil, err
			}
			row.Compactions++
		}
		if c := tier.HotCells(); c > row.HotCellsMax {
			row.HotCellsMax = c
		}
	}
	if cfg.Clock != nil {
		row.FeedWallMS = float64(cfg.Clock().Sub(feedStart)) / float64(time.Millisecond)
	}
	heapEnd := readHeap()

	row.Merges = m.EventCount()
	row.CanonTracks = tier.Len()
	row.HotTracks = tier.HotTracks()
	row.ColdTracks = tier.ColdTracks()
	st := tier.Stats()
	row.Evicted, row.Rehydrated = st.Evicted, st.Rehydrated
	row.RetentionFrame = int(log.RetentionFrame())
	row.LogBytes = dirBytes(cfg.Dir)

	statuses := []GateStatus{
		hotCellsGate(&row),
		heapGate(&cfg, &row, heapBase, heapEnd),
	}

	if err := runAsOfProbes(&cfg, &row, log, tier); err != nil {
		return row, statuses, err
	}
	return row, statuses, nil
}

// hotCellsGate judges the deterministic resident-cell ceiling.
func hotCellsGate(row *HistBenchRow) GateStatus {
	st := NewGateStatus(GateHistHotCells, GateOK, "", runtime.NumCPU())
	if row.HotCellsMax > row.HotCellBudget {
		st.Status = GateFailed
		st.Reason = fmt.Sprintf("hot tier held %d cells, budget %d: eviction is not keeping the horizon", row.HotCellsMax, row.HotCellBudget)
	} else {
		st.Reason = fmt.Sprintf("hot tier peaked at %d cells over %d windows (budget %d)", row.HotCellsMax, row.Windows, row.HotCellBudget)
	}
	return st
}

// heapGate judges measured heap growth per raw track fed, skipping —
// loudly — below the measurability floor where GC noise dominates.
func heapGate(cfg *HistBenchConfig, row *HistBenchRow, heapBase, heapEnd uint64) GateStatus {
	st := NewGateStatus(GateHistHeapGrowth, GateOK, "", runtime.NumCPU())
	row.HeapBytesPerTrack = -1
	if row.Tracks < cfg.HeapGateMinTracks {
		st.Status = GateSkipped
		st.Reason = fmt.Sprintf("%d tracks below the %d-track measurability floor; GC noise dominates the per-track quotient (hot-cells gate still applies)",
			row.Tracks, cfg.HeapGateMinTracks)
		return st
	}
	var perTrack float64
	if heapEnd > heapBase {
		perTrack = float64(heapEnd-heapBase) / float64(row.Tracks)
	}
	row.HeapBytesPerTrack = perTrack
	if perTrack > cfg.MaxHeapBytesPerTrack {
		st.Status = GateFailed
		st.Reason = fmt.Sprintf("%.0f heap bytes per track (ceiling %.0f): full cell state is staying resident", perTrack, cfg.MaxHeapBytesPerTrack)
	} else {
		st.Reason = fmt.Sprintf("%.0f heap bytes per track over %d tracks (ceiling %.0f)", perTrack, row.Tracks, cfg.MaxHeapBytesPerTrack)
	}
	return st
}

// runAsOfProbes replays cfg.AsOfProbes time-travel cuts spread across
// the retained frame range, answering the pinned count query over each
// reconstructed view, and verifies the final cut's answer against the
// live tiered view.
func runAsOfProbes(cfg *HistBenchConfig, row *HistBenchRow, log *histlog.Log, tier *trackdb.LiveView) error {
	q := histCountQuery(cfg)
	end := log.EndFrame()
	// Probes start at the retention boundary, or, on a log that never
	// compacted, at the first window's end: a cut before it holds no
	// window.
	lo := log.RetentionFrame()
	if lo < 0 {
		lo = video.FrameIndex(cfg.WindowLen - 1)
	}
	var cuts []video.FrameIndex
	for i := 0; i < cfg.AsOfProbes; i++ {
		f := end
		if cfg.AsOfProbes > 1 {
			f = lo + (end-lo)*video.FrameIndex(i)/video.FrameIndex(cfg.AsOfProbes-1)
		}
		cuts = append(cuts, f)
	}
	var wall []time.Duration
	for _, f := range cuts {
		var start time.Time
		if cfg.Clock != nil {
			start = cfg.Clock()
		}
		v, cut, err := log.AsOf(f)
		if err != nil {
			return fmt.Errorf("bench: histbench AsOf(%d): %w", f, err)
		}
		if cfg.Clock != nil {
			wall = append(wall, cfg.Clock().Sub(start))
		}
		if cut > f || cut < 0 {
			return fmt.Errorf("bench: histbench AsOf(%d) cut at %d", f, cut)
		}
		got := query.HistoricalAnswer(v, query.NewIncCount(q))
		row.AsOfProbes++
		row.AsOfRows += len(got)
		if f == end {
			// The final cut covers everything the live view holds: the
			// historical answer must be bit-identical to bootstrapping the
			// same query over the tiered view.
			want := query.HistoricalAnswer(tier, query.NewIncCount(q))
			row.Match = sameRows(got, want)
		}
	}
	if len(wall) > 0 {
		sort.Slice(wall, func(i, j int) bool { return wall[i] < wall[j] })
		row.AsOfP50MS = float64(quantile(wall, 0.5)) / float64(time.Millisecond)
		row.AsOfMaxMS = float64(wall[len(wall)-1]) / float64(time.Millisecond)
	}
	return nil
}

// dirBytes sums the sizes of the regular files directly under dir
// (segments and manifest; the log nests nothing deeper). Unreadable
// entries count zero — the footprint is reporting, not a gate.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// HistBench runs RunHistBench and prints the human-readable summary,
// echoing every gate decision to w so a skip is visible in the run log.
func HistBench(w io.Writer, cfg HistBenchConfig) (HistBenchRow, []GateStatus, error) {
	row, statuses, err := RunHistBench(cfg)
	if err != nil {
		return row, statuses, err
	}
	fmt.Fprintf(w, "Log-structured history — %d windows × %d tracks = %d tracks, horizon %d frames\n",
		cfg.Windows, cfg.TracksPerWindow, row.Tracks, cfg.horizonFrames())
	fmt.Fprintf(w, "%-14s %10s %10s %12s %10s %8s %10s %6s\n",
		"canon_tracks", "hot", "cold", "hot_cells", "compacts", "log_mb", "asof_rows", "match")
	fmt.Fprintf(w, "%-14d %10d %10d %12s %10d %8.1f %10d %6v\n",
		row.CanonTracks, row.HotTracks, row.ColdTracks,
		fmt.Sprintf("%d/%d", row.HotCellsMax, row.HotCellBudget),
		row.Compactions, float64(row.LogBytes)/(1<<20), row.AsOfRows, row.Match)
	if row.FeedWallMS > 0 {
		fmt.Fprintf(w, "feed %.0f ms, AsOf p50 %.2f ms max %.2f ms over %d probes\n",
			row.FeedWallMS, row.AsOfP50MS, row.AsOfMaxMS, row.AsOfProbes)
	}
	for _, st := range statuses {
		fmt.Fprintf(w, "gate %s %s: %s\n", st.Gate, st.Status, st.Reason)
	}
	return row, statuses, nil
}

// CheckHistBench returns the CI-gate failures for a histbench run: the
// structural invariants the workload guarantees (equivalence at the
// final cut, a populated cold tier, zero rehydrations, compaction
// actually firing when configured) plus any failed gate_status row.
func CheckHistBench(rows []HistBenchRow, statuses []GateStatus, compactEvery int) []string {
	var fails []string
	if len(rows) == 0 {
		fails = append(fails, "no histbench rows")
		return fails
	}
	for _, r := range rows {
		if !r.Match {
			fails = append(fails, "final AsOf answer diverged from the live tiered view")
		}
		if r.ColdTracks == 0 || r.Evicted == 0 {
			fails = append(fails, fmt.Sprintf("cold tier never populated (%d cold, %d evicted): the horizon is not evicting", r.ColdTracks, r.Evicted))
		}
		if r.Rehydrated != 0 {
			fails = append(fails, fmt.Sprintf("%d rehydrations in a workload that never revisits old cohorts", r.Rehydrated))
		}
		if compactEvery > 0 && r.Compactions == 0 {
			fails = append(fails, "compaction configured but never fired")
		}
		if r.HotCellsMax > r.HotCellBudget {
			fails = append(fails, fmt.Sprintf("hot cells peaked at %d, budget %d", r.HotCellsMax, r.HotCellBudget))
		}
	}
	for _, st := range statuses {
		if st.Status == GateFailed {
			fails = append(fails, fmt.Sprintf("gate %s failed: %s", st.Gate, st.Reason))
		}
	}
	return fails
}
