package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/tmerge/tmerge/internal/ingress"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/video"
)

// inprocTransport pushes straight into a serve.Manager.
type inprocTransport struct {
	m   *serve.Manager
	ids []string
}

func startInprocTransport(cfg ServeBenchConfig, sc serve.Config, streams []loadgen.Stream) (serveTransport, error) {
	t := &inprocTransport{m: serve.NewManager(sc)}
	for _, s := range streams {
		if err := t.m.Register(serveBenchSpec(cfg, s.ID, s.Seed)); err != nil {
			t.m.Shutdown()
			return nil, fmt.Errorf("bench: register %s: %w", s.ID, err)
		}
		t.ids = append(t.ids, s.ID)
	}
	return t, nil
}

func (t *inprocTransport) push(i int, f video.FrameIndex, dets []video.BBox) error {
	return t.m.Push(t.ids[i], f, dets)
}

func (t *inprocTransport) flush(int) error { return nil }

func (t *inprocTransport) finish(i int) (ingress.FinishResponse, error) {
	res, err := t.m.Finish(t.ids[i])
	if err != nil {
		return ingress.FinishResponse{}, err
	}
	return ingress.FinishResponse{
		Stream:          t.ids[i],
		Fingerprint:     res.Fingerprint(),
		Frames:          res.FramesProcessed,
		Windows:         len(res.Windows),
		DegradedWindows: res.DegradedWindows,
	}, nil
}

func (t *inprocTransport) stop() { t.m.Shutdown() }

// httpTransport stands the ingress HTTP server up on a loopback listener
// and pushes NDJSON batches through one ingress.Client per stream, so
// every frame crosses a real HTTP hop.
type httpTransport struct {
	ctx       context.Context
	srv       *ingress.Server
	hs        *http.Server
	serveDone chan struct{}
	transport *http.Transport
	clients   []*ingress.Client
}

func startHTTPTransport(ctx context.Context, cfg ServeBenchConfig, sc serve.Config, streams []loadgen.Stream) (serveTransport, error) {
	batch := cfg.BatchFrames
	if batch <= 0 {
		batch = 8
	}
	seeds := make(map[string]uint64, len(streams))
	for _, s := range streams {
		seeds[s.ID] = s.Seed
	}
	srv, err := ingress.NewServer(ingress.ServerConfig{
		Serve: sc,
		Spec: func(id string, _ ingress.RegisterRequest) (serve.StreamSpec, error) {
			seed, ok := seeds[id]
			if !ok {
				return serve.StreamSpec{}, fmt.Errorf("bench: unknown stream %q", id)
			}
			return serveBenchSpec(cfg, id, seed), nil
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, fmt.Errorf("bench: servebench listener: %w", err)
	}
	t := &httpTransport{
		ctx:       ctx,
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		serveDone: make(chan struct{}),
		transport: &http.Transport{MaxIdleConns: 2 * len(streams), MaxIdleConnsPerHost: 2 * len(streams)},
	}
	go func() { _ = t.hs.Serve(ln); close(t.serveDone) }()

	// The backstop Timeout must outlive the 60s RequestTimeout below —
	// blocking pushes deliberately ride the queue's backpressure.
	hc := &http.Client{Transport: t.transport, Timeout: 2 * time.Minute}
	for _, s := range streams {
		c, err := ingress.NewClient(ingress.ClientConfig{
			BaseURL:        "http://" + ln.Addr().String(),
			Stream:         s.ID,
			Seed:           s.Seed,
			HTTPClient:     hc,
			BatchFrames:    batch,
			RequestTimeout: 60 * time.Second,
		})
		if err == nil {
			_, err = c.Register(ctx, ingress.RegisterRequest{Seed: s.Seed})
		}
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("bench: register %s: %w", s.ID, err)
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *httpTransport) push(i int, f video.FrameIndex, dets []video.BBox) error {
	return t.clients[i].Push(t.ctx, f, dets)
}

func (t *httpTransport) flush(i int) error { return t.clients[i].Flush(t.ctx) }

func (t *httpTransport) finish(i int) (ingress.FinishResponse, error) {
	return t.clients[i].Finish(t.ctx)
}

func (t *httpTransport) stop() {
	t.srv.Shutdown()
	_ = t.hs.Close()
	<-t.serveDone
	t.transport.CloseIdleConnections()
}
