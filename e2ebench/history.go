package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/histlog"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// The history workload: long longhorizon streams (track count grows
// linearly with length), each pushed closed loop, frame by frame, into
// a history-mode ingest.Ingestor: on-disk segmented log, compaction, an
// automatic checkpoint every few windows, two standing query
// subscriptions, an AsOf read at a fixed window cadence, and one
// crash → ingest.Restore → catch-up at a fixed frame. TauMax is modest
// so selection is a minority of the wall time. A round passes every
// stream once, one after another; several streams per round average
// out how much one seed's scene costs.
const (
	histStreams     = 4
	histFrames      = 1200
	histTauMax      = 500
	histK           = 0.05
	histCkptEvery   = 4
	histSegWindows  = 4
	histCompact     = 2
	histAsOfEvery   = 2   // windows between AsOf reads
	histCrashFrame  = 750 // the session is abandoned before this frame
	histMinSpan     = 60  // count query: tracks present this many frames
	histCoOccurSize = 2
)

type historyInput struct {
	videos []*synth.Video
	window int
	model  *reid.Model
}

func buildHistory(seed uint64) (*historyInput, error) {
	p := dataset.LongHorizonLike(seed)
	p.NumVideos = histStreams
	if err := p.ScaleHorizon(histFrames, 0); err != nil {
		return nil, err
	}
	ds, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return &historyInput{
		videos: ds.Videos,
		window: ds.WindowLen,
		model:  newModel(),
	}, nil
}

var histCount = query.CountQuery{MinFrames: histMinSpan}

// histSession is one pass's live session and its wiring.
type histSession struct {
	in      *historyInput
	video   *synth.Video
	dir     string
	tr      *tracer
	recall  *recallLog
	ing     *ingest.Ingestor
	ckpt    []byte // latest sealed checkpoint
	ckptSum int64
}

func (s *histSession) config() ingest.Config {
	return ingest.Config{
		WindowLen:           s.in.window,
		K:                   histK,
		Algorithm:           wrapAlgo(newTMerge(histTauMax), s.tr, s.recall),
		AutoCheckpointEvery: histCkptEvery,
		CheckpointSink:      s.sink,
		History: &ingest.HistoryConfig{
			Dir:               s.dir,
			WindowsPerSegment: histSegWindows,
			CompactEvery:      histCompact,
		},
	}
}

// sink keeps the latest checkpoint; traced, it times the seal as the
// gap since the last child span of the push that sealed it.
func (s *histSession) sink(data []byte) error {
	if s.tr != nil {
		s.tr.observe("ckpt.seal", time.Since(s.tr.lastEnd()))
	}
	s.ckpt = append(s.ckpt[:0], data...)
	s.ckptSum += int64(len(data))
	return nil
}

func (s *histSession) pipeline() (*track.Engine, *reid.Oracle) {
	return track.Tracktor(), reid.NewOracle(s.in.model, wrapDevice(device.NewCPU(device.DefaultCPU), s.tr))
}

// subscribe registers the two standing queries.
func (s *histSession) subscribe() error {
	span := s.tr.begin()
	defer s.tr.end("ingest.subscribe", span)
	if _, err := s.ing.Subscribe("count", wrapQuery(query.NewIncCount(histCount), s.tr)); err != nil {
		return err
	}
	_, err := s.ing.Subscribe("cooccur", wrapQuery(query.NewIncCoOccur(query.CoOccurQuery{GroupSize: histCoOccurSize, MinFrames: histMinSpan}), s.tr))
	return err
}

// histPass is one pass's measurements.
type histPass struct {
	stream      int // index into historyInput.videos
	wall        time.Duration
	windowLat   []float64 // closing-push latency, ms
	fingerprint string
	virtual     time.Duration
	restore     time.Duration
	open        time.Duration
	replay      time.Duration
	segments    int
	compactions int
	logBytes    int64
	hot, cold   int
	hotCells    int
	evicted     int
	rehydrated  int
	stats       reid.Stats
	submissions int64
	windows     int
	degraded    int
	ckptSum     int64
	ckptLast    int
	attributed  time.Duration // traced: top-level public-call spans
}

// run drives one pass. crash abandons the session before histCrashFrame
// and restores it from the latest checkpoint; reads interleaves AsOf
// reads and checks each against the live answer at the same cut.
func (s *histSession) run(crash, reads bool, out *outcome) (histPass, error) {
	var p histPass
	if err := os.RemoveAll(s.dir); err != nil {
		return p, err
	}
	start := time.Now()
	attributed0 := s.topLevel()
	engine, oracle := s.pipeline()
	var err error
	if s.ing, err = ingest.New(engine, oracle, s.config()); err != nil {
		return p, err
	}
	if err := s.subscribe(); err != nil {
		return p, err
	}
	live := make(map[video.FrameIndex][][]video.TrackID) // cut → live count answer
	var lastCut video.FrameIndex = -1
	base := -1 // manifest index of the compacted base segment
	closed := 0
	dets := s.video.Detections
	for f := 0; f < len(dets); f++ {
		if crash && f == histCrashFrame {
			if err := s.crashRestore(&p, f); err != nil {
				return p, err
			}
		}
		t0 := time.Now()
		var child0 time.Duration
		if s.tr != nil {
			child0 = s.tr.total("core.select") + s.tr.total("query.apply") + s.tr.total("ckpt.seal")
		}
		res := s.ing.PushAt(video.FrameIndex(f), dets[f])
		d := time.Since(t0)
		if s.tr != nil {
			s.tr.observe("ingest.pushat", d)
			child := s.tr.total("core.select") + s.tr.total("query.apply") + s.tr.total("ckpt.seal") - child0
			if len(res) == 0 {
				s.tr.observe("ingest.push", d)
			} else {
				s.tr.observe("ingest.window", d-child)
			}
		}
		if len(res) == 0 {
			continue
		}
		p.windowLat = append(p.windowLat, ms(d))
		for _, r := range res {
			closed++
			if r.Degraded {
				p.degraded++
			}
			lastCut = r.Window.End
		}
		if !reads {
			continue
		}
		live[lastCut] = s.ing.Operator("count").Results()
		if s.tr != nil {
			if b := baseSegment(s.dir); b >= 0 && b != base {
				p.compactions++
				base = b
			}
		}
		if closed%histAsOfEvery == 0 {
			// Read the newest committed cut: older cuts may already lie
			// before the retention boundary a compaction moved.
			cut := lastCut
			want := live[cut]
			span := s.tr.begin()
			view, at, err := s.ing.AsOf(cut)
			s.tr.end("hist.asof", span)
			if err != nil {
				out.check(false, "history AsOf(%d): %v", cut, err)
				continue
			}
			got := query.HistoricalAnswer(view, query.NewIncCount(histCount))
			out.check(at == cut && sameRows(got, want), "history AsOf(%d) (cut at %d): %d rows, live view had %d", cut, at, len(got), len(want))
		}
	}
	span := s.tr.begin()
	s.ing.Close()
	s.tr.end("ingest.close", span)
	p.wall = time.Since(start)

	if err := s.ing.CheckpointErr(); err != nil {
		out.check(false, "history checkpoint: %v", err)
	}
	if err := s.ing.HistoryErr(); err != nil {
		out.check(false, "history log: %v", err)
	}
	res := s.ing.Result()
	p.fingerprint = res.Fingerprint()
	p.virtual = res.Virtual
	p.stats = res.Stats
	p.windows = len(res.Windows)
	p.submissions = s.ing.Oracle().Device().Submissions()
	p.hot, p.cold, p.hotCells, _ = s.ing.HistoryStats()
	_, _, _, tier := s.ing.HistoryStats()
	p.evicted, p.rehydrated = tier.Evicted, tier.Rehydrated
	p.ckptSum, p.ckptLast = s.ckptSum, len(s.ckpt)
	p.logBytes, p.segments = dirUsage(s.dir)
	p.attributed = s.topLevel() - attributed0
	return p, nil
}

// topLevel sums the spans around the benchmark's own calls into the
// session's public API (zero untraced).
func (s *histSession) topLevel() time.Duration {
	if s.tr == nil {
		return 0
	}
	var sum time.Duration
	for _, name := range []string{"ingest.pushat", "hist.asof", "ckpt.open", "ingest.subscribe", "ingest.close"} {
		sum += s.tr.total(name)
	}
	return sum
}

// crashRestore abandons the live session (as a crash would: nothing is
// flushed or closed) and rebuilds it from the latest checkpoint with
// ingest.Restore, then replays the frames since the checkpoint until
// the session is back at frame f.
func (s *histSession) crashRestore(p *histPass, f int) error {
	if len(s.ckpt) == 0 {
		return fmt.Errorf("no checkpoint before the crash at frame %d", f)
	}
	start := time.Now()
	span := s.tr.begin()
	engine, oracle := s.pipeline()
	ing, err := ingest.Restore(engine, oracle, s.config(), s.ckpt)
	s.tr.end("ckpt.open", span)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	s.ing = ing
	if err := s.subscribe(); err != nil {
		return err
	}
	p.open = time.Since(start)
	rstart := time.Now()
	for r := ing.FramesSeen(); r < f; r++ {
		span := s.tr.begin()
		ing.PushAt(video.FrameIndex(r), s.video.Detections[r])
		s.tr.end("ingest.pushat", span)
	}
	p.replay = time.Since(rstart)
	p.restore = time.Since(start)
	return nil
}

// baseSegment returns the index of the compacted base segment listed in
// the history directory's manifest, -1 when there is none. Each
// compaction writes a new base, so a changed index counts one.
func baseSegment(dir string) int {
	data, err := os.ReadFile(filepath.Join(dir, histlog.ManifestFile))
	if err != nil {
		return -1
	}
	var m histlog.Manifest
	if err := checkpoint.OpenAs(data, histlog.ManifestFormat, histlog.ManifestVersion, &m); err != nil {
		return -1
	}
	for _, seg := range m.Segments {
		if seg.Kind == histlog.KindBase {
			return seg.Index
		}
	}
	return -1
}

// dirUsage returns the bytes under dir and its number of segment files.
func dirUsage(dir string) (int64, int) {
	var bytes int64
	segs := 0
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil // a file removed mid-walk by compaction
		}
		if !info.IsDir() {
			bytes += info.Size()
			if strings.HasPrefix(info.Name(), "seg-") {
				segs++
			}
		}
		return nil
	})
	return bytes, segs
}

func sameRows(a, b [][]video.TrackID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func runHistory(opt options) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	var in *historyInput
	build := func() (err error) {
		in, err = buildHistory(opt.seed)
		return err
	}
	var setup setupClock
	if err := setup.time(build, 2); err != nil {
		return nil, err
	}
	dir := filepath.Join(opt.work, "history")
	defer os.RemoveAll(dir)

	// Uninterrupted references, outside the timed phase: no crash, no
	// reads; they also log recall for rec_k.
	rec := &recallLog{}
	refs := make([]histPass, len(in.videos))
	var virtual time.Duration
	for j, v := range in.videos {
		refSess := &histSession{in: in, video: v, dir: dir, recall: rec}
		var err error
		if refs[j], err = refSess.run(false, false, out); err != nil {
			return nil, fmt.Errorf("reference %d: %w", j, err)
		}
		virtual += refs[j].virtual
	}
	checkPass := func(kind string, n int, p histPass) {
		out.check(p.fingerprint == refs[p.stream].fingerprint, "history %s pass %d (stream %d): restored session fingerprint %.12s, uninterrupted %.12s",
			kind, n, p.stream, p.fingerprint, refs[p.stream].fingerprint)
		out.check(p.degraded == 0, "history %s pass %d (stream %d): %d degraded windows without injected faults", kind, n, p.stream, p.degraded)
	}

	plain := opt.seconds
	if opt.trace {
		plain = opt.seconds / 2
	}
	rounds, peak, rt0, rt1, err := historyRounds(in, dir, nil, plain, out)
	if err != nil {
		return nil, err
	}
	var lats []float64
	var passes int
	for r, round := range rounds {
		for _, p := range round {
			lats = append(lats, p.windowLat...)
			fmt.Fprintf(os.Stderr, "e2ebench: history round %d stream %d: %.1f frames/s, closing push p50 %.1f ms p90 %.1f ms, restore %.3f s\n",
				r, p.stream, float64(histFrames)/p.wall.Seconds(), quantile(p.windowLat, 0.5), quantile(p.windowLat, 0.9), p.restore.Seconds())
			checkPass("untraced", passes, p)
			passes++
		}
	}
	fps := roundRates(rounds)
	m := out.metrics
	m["wall_fps"] = quantile(fps, 0.5)
	m["device.virtual_fps"] = float64(len(in.videos)*histFrames) / virtual.Seconds()
	m["core.rec_k"] = rec.rec()
	m["latency_p50_ms"] = quantile(lats, 0.5)
	m["latency_ms.p90"] = quantile(lats, 0.9)
	m["latency_ms.p99"] = quantile(lats, 0.99)
	m["runtime.peak_heap_mb"] = peak
	if !opt.trace {
		if err := setup.time(build, 1); err != nil {
			return nil, err
		}
		m["setup_s"] = setup.median()
		return out, nil
	}
	runtimeMetrics(m, rt0, rt1, passes*histFrames)

	tr := newTracer()
	trounds, _, _, _, err := historyRounds(in, dir, tr, opt.seconds-plain, out)
	if err != nil {
		return nil, err
	}
	var twall, attributed time.Duration
	var tpasses []histPass
	for _, round := range trounds {
		for _, p := range round {
			twall += p.wall
			attributed += p.attributed
			checkPass("traced", len(tpasses), p)
			tpasses = append(tpasses, p)
		}
	}
	p := tpasses[len(tpasses)-1]
	m["trace.overhead_frac"] = quantile(fps, 0.5)/quantile(roundRates(trounds), 0.5) - 1
	m["trace.unattributed_frac"] = 1 - attributed.Seconds()/twall.Seconds()
	tr.layerMetrics(m)
	// Per-pass figures: busy times over the passes; counts, sizes and
	// the restore split from the last pass.
	m["core.select_busy_s"] /= float64(len(tpasses))
	m["device.submit_busy_s"] /= float64(len(tpasses))
	m["core.degraded_windows"] = float64(p.degraded)
	oracleMetrics(m, p.stats, p.submissions, p.virtual)
	push := tr.quantiles("ingest.push", time.Microsecond, 0.5, 0.99)
	m["ingest.push_us.p50"], m["ingest.push_us.p99"] = push[0], push[1]
	win := tr.quantiles("ingest.window", time.Millisecond, 0.5, 0.99)
	m["ingest.window_ms.p50"], m["ingest.window_ms.p99"] = win[0], win[1]
	m["view.hot_tracks"] = float64(p.hot)
	m["view.cold_tracks"] = float64(p.cold)
	m["view.hot_cells"] = float64(p.hotCells)
	m["view.evictions"] = float64(p.evicted)
	m["view.rehydrations"] = float64(p.rehydrated)
	m["hist.log_mb"] = float64(p.logBytes) / (1 << 20)
	m["hist.segments"] = float64(p.segments)
	m["hist.compactions"] = float64(p.compactions)
	asof := tr.quantiles("hist.asof", time.Millisecond, 0.5, 0.9)
	m["hist.asof_ms.p50"], m["hist.asof_ms.p90"] = asof[0], asof[1]
	seal := tr.quantiles("ckpt.seal", time.Millisecond, 0.5, 1)
	m["ckpt.seal_ms.p50"], m["ckpt.seal_ms.max"] = seal[0], seal[1]
	m["ckpt.bytes.last"] = float64(p.ckptLast)
	if p.windows > 0 {
		m["ckpt.bytes_per_window"] = float64(p.ckptSum) / float64(p.windows)
	}
	m["ckpt.open_s"] = p.open.Seconds()
	m["ingest.replay_s"] = p.replay.Seconds()
	m["ingest.restore_s"] = p.restore.Seconds()
	return out, nil
}

// roundRates returns each round's frames per wall second over its
// passes.
func roundRates(rounds [][]histPass) []float64 {
	var rates []float64
	for _, round := range rounds {
		var wall time.Duration
		for _, p := range round {
			wall += p.wall
		}
		rates = append(rates, float64(len(round)*histFrames)/wall.Seconds())
	}
	return rates
}

// historyRounds runs rounds of crash-and-read passes, one per stream,
// each in a fresh history directory, until seconds have passed (at
// least one round). It returns the median over passes of each pass's
// peak live heap.
func historyRounds(in *historyInput, dir string, tr *tracer, seconds float64, out *outcome) ([][]histPass, float64, runtimeSnap, runtimeSnap, error) {
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.Stop()
	rt0 := readRuntime()
	var rounds [][]histPass
	var peaks []float64
	start := time.Now()
	for len(rounds) == 0 || !deadline(start, seconds) {
		var round []histPass
		for j, v := range in.videos {
			s := &histSession{in: in, video: v, dir: dir, tr: tr}
			p, err := s.run(true, true, out)
			if err != nil {
				return nil, 0, rt0, rt0, err
			}
			p.stream = j
			round = append(round, p)
			peaks = append(peaks, heap.segment())
		}
		rounds = append(rounds, round)
	}
	return rounds, quantile(peaks, 0.5), rt0, readRuntime(), nil
}
