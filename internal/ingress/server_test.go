package ingress

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// testPipeline builds a fresh, isolated pipeline per call, seeded by the
// stream's registration seed (the serve-layer test idiom).
func testPipeline(seed uint64) serve.PipelineFactory {
	return func() (*track.Engine, *reid.Oracle) {
		model := reid.NewModel(seed^0x5EED, dataset.AppearanceDim)
		return track.Tracktor(), reid.NewOracle(model, device.NewCPU(device.DefaultCPU))
	}
}

// testIngestCfg mirrors the serve tests' streaming configuration.
func testIngestCfg(seed uint64, windowLen, ckptEvery int) ingest.Config {
	tc := core.DefaultTMergeConfig(seed)
	tc.TauMax = 300
	return ingest.Config{
		WindowLen:           windowLen,
		K:                   0.05,
		Algorithm:           core.NewTMerge(tc),
		AutoCheckpointEvery: ckptEvery,
		Workers:             1,
	}
}

// testSpec is the SpecFunc the tests register under: the wire knobs map
// onto the test pipeline and ingestion defaults.
func testSpec(id string, req RegisterRequest) (serve.StreamSpec, error) {
	wl := req.WindowLen
	if wl <= 0 {
		wl = 40
	}
	return serve.StreamSpec{
		Ingest:   testIngestCfg(req.Seed, wl, req.CheckpointEvery),
		Pipeline: testPipeline(req.Seed),
		QueueCap: req.QueueCap,
	}, nil
}

// newTestServer builds an ingress server + HTTP listener around cfg.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = testSpec
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// sequentialFingerprint runs the stream alone, in process, and returns
// the reference fingerprint every served run must match.
func sequentialFingerprint(t *testing.T, s loadgen.Stream, windowLen, ckptEvery int) (string, int) {
	t.Helper()
	engine, oracle := testPipeline(s.Seed)()
	cfg := testIngestCfg(s.Seed, windowLen, ckptEvery)
	if ckptEvery > 0 {
		cfg.CheckpointSink = func([]byte) error { return nil }
	}
	ref, err := ingest.New(engine, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, dets := range s.Video.Detections {
		ref.PushAt(video.FrameIndex(f), dets)
	}
	ref.Close()
	res := ref.Result()
	return res.Fingerprint(), res.FramesProcessed
}

func TestServerPushFinishMatchesSequential(t *testing.T) {
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 61, Streams: 2, Frames: 120})
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, ServerConfig{Serve: serve.Config{Workers: 2, DefaultQueueCap: 128}})
	defer hs.Close()
	defer srv.Shutdown()

	for _, s := range streams {
		c, err := NewClient(ClientConfig{BaseURL: hs.URL, Stream: s.ID, Seed: s.Seed, BatchFrames: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(context.Background(), RegisterRequest{Seed: s.Seed, CheckpointEvery: 2}); err != nil {
			t.Fatalf("register %s: %v", s.ID, err)
		}
		for f, dets := range s.Video.Detections {
			if err := c.Push(context.Background(), video.FrameIndex(f), dets); err != nil {
				t.Fatalf("push %s frame %d: %v", s.ID, f, err)
			}
		}
		fin, err := c.Finish(context.Background())
		if err != nil {
			t.Fatalf("finish %s: %v", s.ID, err)
		}
		wantFP, wantFrames := sequentialFingerprint(t, s, 40, 2)
		if fin.Fingerprint != wantFP {
			t.Errorf("%s: served fingerprint %s != sequential %s", s.ID, fin.Fingerprint, wantFP)
		}
		if fin.Frames != wantFrames {
			t.Errorf("%s: frames %d, want %d", s.ID, fin.Frames, wantFrames)
		}
		// Finish is idempotent: a retried finish returns the same body.
		again, err := c.Finish(context.Background())
		if err != nil || again != fin {
			t.Errorf("%s: re-finish got %+v, %v; want cached %+v", s.ID, again, err, fin)
		}
	}
	srv.Shutdown()
	hs.Close()
	checkNoGoroutineLeak(t, before)
}

// rawPush posts an NDJSON body and decodes the response or error.
func rawPush(t *testing.T, base, stream, body string) (int, PushResponse, ErrorBody) {
	t.Helper()
	resp, err := http.Post(base+"/v1/streams/"+stream+"/frames", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PushResponse
	var eb ErrorBody
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&pr); err != nil {
			t.Fatal(err)
		}
	} else if err := dec.Decode(&eb); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, pr, eb
}

// TestServerDedupHighWaterMark pins the exactly-once invariant at the
// wire: resending a settled batch advances nothing and is counted as
// duplicates; a fresh sequence number cannot smuggle in a settled frame.
func TestServerDedupHighWaterMark(t *testing.T) {
	streams, err := loadgen.Generate(loadgen.Config{Seed: 67, Streams: 1, Frames: 40})
	if err != nil {
		t.Fatal(err)
	}
	s := streams[0]
	srv, hs := newTestServer(t, ServerConfig{Serve: serve.Config{Workers: 1, DefaultQueueCap: 64}})
	defer hs.Close()
	defer srv.Shutdown()

	resp, err := http.Post(hs.URL+"/v1/streams/"+s.ID, "application/json", strings.NewReader(`{"seed":67}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}

	var batch bytes.Buffer
	recs := make([]PushRecord, 3)
	for i := range recs {
		recs[i] = PushRecord{Seq: int64(i), Frame: video.FrameIndex(i), Dets: s.Video.Detections[i]}
	}
	if err := EncodePushBatch(&batch, recs); err != nil {
		t.Fatal(err)
	}
	first := batch.String()

	status, pr, _ := rawPush(t, hs.URL, s.ID, first)
	if status != 200 || pr.AckedSeq != 2 || pr.NextFrame != 3 || pr.Duplicates != 0 {
		t.Fatalf("first push: HTTP %d %+v", status, pr)
	}
	// Exact resend: all duplicates, marks unchanged.
	status, pr, _ = rawPush(t, hs.URL, s.ID, first)
	if status != 200 || pr.AckedSeq != 2 || pr.NextFrame != 3 || pr.Duplicates != 3 {
		t.Fatalf("resend: HTTP %d %+v, want acked 2 / next 3 / 3 duplicates", status, pr)
	}
	// A new seq carrying an already-settled frame is discarded but
	// advances the high-water mark (the client need not resend it).
	line := func(seq int64, frame int) string {
		return fmt.Sprintf(`{"seq":%d,"frame":%d}`, seq, frame) + "\n"
	}
	status, pr, _ = rawPush(t, hs.URL, s.ID, line(10, 1))
	if status != 200 || pr.AckedSeq != 10 || pr.NextFrame != 3 || pr.Duplicates != 1 {
		t.Fatalf("settled frame under new seq: HTTP %d %+v, want acked 10 / next 3 / 1 duplicate", status, pr)
	}
	// An old seq carrying a new frame is likewise discarded: the mark
	// proves that seq was settled, whatever it carried.
	status, pr, _ = rawPush(t, hs.URL, s.ID, line(4, 20))
	if status != 200 || pr.AckedSeq != 10 || pr.NextFrame != 3 || pr.Duplicates != 1 {
		t.Fatalf("old seq: HTTP %d %+v, want acked 10 / next 3 / 1 duplicate", status, pr)
	}
	// Status surfaces the marks and the cumulative discard count. A push
	// ack means queued, not processed, so wait for the queue to drain
	// before reading the frame cursor.
	var row StreamStatus
	waitFor(t, func() bool {
		sresp, err := http.Get(hs.URL + "/v1/streams/" + s.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		row = StreamStatus{}
		if err := json.NewDecoder(sresp.Body).Decode(&row); err != nil {
			t.Fatal(err)
		}
		return row.Queued == 0
	}, "the pushed frames to leave the queue")
	if row.AckedSeq != 10 || row.Duplicates != 5 {
		t.Fatalf("status row %+v, want acked_seq 10, duplicates 5", row)
	}
	if row.Frames != 3 {
		t.Fatalf("status frames = %d, want 3 (dup pushes must not advance the cursor)", row.Frames)
	}
}

// TestServerOverloadSurfacesAs429 pins the backpressure protocol: a full
// shedding queue maps to 429 with both Retry-After channels set, and the
// client rides it out.
func TestServerOverloadSurfacesAs429(t *testing.T) {
	streams, err := loadgen.Generate(loadgen.Config{Seed: 71, Streams: 1, Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := streams[0]
	release := make(chan struct{})
	var onceGate sync.Once
	srv, hs := newTestServer(t, ServerConfig{
		RetryAfter: 20 * time.Millisecond,
		Serve: serve.Config{
			Workers: 1, Shed: true, DefaultQueueCap: 4, TurnFrames: 8,
			OnWindow: func(string, ingest.WindowResult, time.Duration) { onceGate.Do(func() { <-release }) },
		},
	})
	defer hs.Close()
	defer srv.Shutdown()

	resp, err := http.Post(hs.URL+"/v1/streams/"+s.ID, "application/json", strings.NewReader(`{"seed":71,"window_len":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The first window (frames 0..7) wedges the only worker in OnWindow;
	// four more frames fill the queue; the next push must shed.
	var saw429 bool
	var lastHdr string
	seq := int64(0)
	for f := 0; f < 16 && !saw429; f++ {
		body := fmt.Sprintf(`{"seq":%d,"frame":%d}`, seq, f) + "\n"
		req, err := http.Post(hs.URL+"/v1/streams/"+s.ID+"/frames", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if req.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			lastHdr = req.Header.Get("Retry-After")
			var eb ErrorBody
			if err := json.NewDecoder(req.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if eb.Code != CodeOverloaded || eb.RetryAfterMS != 20 {
				t.Fatalf("429 body %+v, want code %q with 20ms hint", eb, CodeOverloaded)
			}
		} else if req.StatusCode == http.StatusOK {
			seq++
		} else {
			t.Fatalf("push frame %d: HTTP %d", f, req.StatusCode)
		}
		req.Body.Close()
	}
	if !saw429 {
		t.Fatal("queue never shed: no 429 observed")
	}
	if lastHdr != "1" {
		t.Fatalf("Retry-After header = %q, want \"1\" (20ms rounds up to 1s)", lastHdr)
	}
	close(release)
}

// TestServerDrainThenResume pins restart equivalence over the wire
// without fault injection: half the stream into server A, drain A (503s
// from that moment), bring up server B over the same store, reattach and
// replay — the final fingerprint matches the uninterrupted run.
func TestServerDrainThenResume(t *testing.T) {
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 73, Streams: 1, Frames: 160})
	if err != nil {
		t.Fatal(err)
	}
	s := streams[0]
	store := NewMemStore()

	srvA, hsA := newTestServer(t, ServerConfig{Store: store, Serve: serve.Config{Workers: 1, DefaultQueueCap: 256}})
	c, err := NewClient(ClientConfig{BaseURL: hsA.URL, Stream: s.ID, Seed: s.Seed})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Register(context.Background(), RegisterRequest{Seed: s.Seed, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Resumed || reg.NextFrame != 0 {
		t.Fatalf("fresh register = %+v", reg)
	}
	const cut = 80
	for f := 0; f < cut; f++ {
		if err := c.Push(context.Background(), video.FrameIndex(f), s.Video.Detections[f]); err != nil {
			t.Fatalf("push %d: %v", f, err)
		}
	}
	if err := srvA.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The drained server refuses intake with the draining code.
	status, _, eb := rawPush(t, hsA.URL, s.ID, `{"seq":999,"frame":999}`+"\n")
	if status != http.StatusServiceUnavailable || eb.Code != CodeDraining {
		t.Fatalf("push after drain: HTTP %d %+v, want 503 %s", status, eb, CodeDraining)
	}
	hsA.Close()

	srvB, hsB := newTestServer(t, ServerConfig{Store: store, Serve: serve.Config{Workers: 1, DefaultQueueCap: 256}})
	defer hsB.Close()
	defer srvB.Shutdown()
	c2, err := NewClient(ClientConfig{BaseURL: hsB.URL, Stream: s.ID, Seed: s.Seed})
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := c2.Register(context.Background(), RegisterRequest{Seed: s.Seed, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reg2.Resumed || reg2.NextFrame != cut || reg2.AckedSeq != -1 {
		t.Fatalf("resumed register = %+v, want resumed at frame %d with acked -1", reg2, cut)
	}
	// An at-least-once replay: resend everything; the server discards
	// what its checkpoint covers.
	for f := 0; f < len(s.Video.Detections); f++ {
		if err := c2.Push(context.Background(), video.FrameIndex(f), s.Video.Detections[f]); err != nil {
			t.Fatalf("replay %d: %v", f, err)
		}
	}
	fin, err := c2.Finish(context.Background())
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	wantFP, wantFrames := sequentialFingerprint(t, s, 40, 2)
	if fin.Fingerprint != wantFP {
		t.Errorf("drained+resumed fingerprint %s != sequential %s", fin.Fingerprint, wantFP)
	}
	if fin.Frames != wantFrames {
		t.Errorf("frames %d, want %d", fin.Frames, wantFrames)
	}
	srvB.Shutdown()
	hsB.Close()
	checkNoGoroutineLeak(t, before)
}

// checkNoGoroutineLeak is the serve-test leak idiom: the goroutine count
// must return to its before-value within a few seconds.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerRefusesCorruptStoredCheckpoint: registration opens a stored
// checkpoint through the verified path, so a corrupt one fails with a
// 500 instead of resuming a stream from bytes that only look like a
// cursor (the unverified scan the durable mark uses still reads one).
func TestServerRefusesCorruptStoredCheckpoint(t *testing.T) {
	streams, err := loadgen.Generate(loadgen.Config{Seed: 73, Streams: 1, Frames: 60})
	if err != nil {
		t.Fatal(err)
	}
	s := streams[0]
	engine, oracle := testPipeline(s.Seed)()
	in, err := ingest.New(engine, oracle, testIngestCfg(s.Seed, 40, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, dets := range s.Video.Detections {
		in.Push(dets)
	}
	data, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 1
	if next, err := ingest.CheckpointNextFrame(data); err != nil || next != 60 {
		t.Fatalf("CheckpointNextFrame on the flipped bytes = %d, %v; want 60", next, err)
	}
	store := NewMemStore()
	if err := store.Put(s.ID, data); err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, ServerConfig{Store: store, Serve: serve.Config{Workers: 1}})
	defer hs.Close()
	defer srv.Shutdown()
	body := mustMarshal(t, RegisterRequest{Seed: s.Seed})
	resp, err := http.Post(hs.URL+"/v1/streams/"+s.ID, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || eb.Code != CodeInternal || !strings.Contains(eb.Error, "checksum") {
		t.Fatalf("register over a corrupt checkpoint: HTTP %d %+v, want 500 %s naming the checksum", resp.StatusCode, eb, CodeInternal)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
