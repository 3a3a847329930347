package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"shortcutmining/internal/journal"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/serve"
)

// server is an in-process serve engine behind serve.NewHandler on a
// loopback listener, optionally journaled.
type server struct {
	eng     *serve.Engine
	reg     *metrics.Registry
	jr      *journal.Journal
	dir     string // journal directory, removed on close
	srv     *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
}

// startServer opens the journal (when dir is set) and replays it
// through Engine.Recover, as scm-serve does at boot, then starts the
// engine and its HTTP listener. Spans cover journal.Open,
// serve.NewEngine and the listener start when tr is set.
func startServer(opts serve.Options, dir string, conns int, tr *tracer) (*server, error) {
	s := &server{reg: metrics.New(), dir: dir, served: make(chan struct{})}
	opts.Registry = s.reg
	span := func(name string, start time.Time) {
		if tr != nil {
			tr.record(name, 0, -1, start, time.Now())
		}
	}
	if dir != "" {
		t := time.Now()
		jr, recovered, err := journal.Open(dir, journal.Options{Now: time.Now})
		if err != nil {
			return nil, err
		}
		span("journal.Open", t)
		s.jr = jr
		opts.Journal = jr
		t = time.Now()
		s.eng = serve.NewEngine(opts)
		if _, err := s.eng.Recover(recovered); err != nil {
			return nil, errors.Join(err, jr.Close())
		}
		span("serve.NewEngine", t)
	} else {
		t := time.Now()
		s.eng = serve.NewEngine(opts)
		span("serve.NewEngine", t)
	}
	t := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.closeEngine())
	}
	s.srv = &http.Server{Handler: serve.NewHandler(s.eng), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // always ErrServerClosed once close calls Shutdown
	}()
	s.base = "http://" + ln.Addr().String()
	// One client, and so one keep-alive connection, per caller.
	for i := 0; i < conns; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	span("http.Listen", t)
	return s, nil
}

// close stops the listener and the engine, closes the journal and
// removes its directory.
func (s *server) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	return errors.Join(err, s.eng.Drain(ctx), s.closeEngine())
}

func (s *server) closeEngine() error {
	if s.jr == nil {
		return nil
	}
	return errors.Join(s.jr.Close(), os.RemoveAll(s.dir))
}

// do sends one request on caller c's connection and reads the whole
// reply into buf.
func (s *server) do(ctx context.Context, c int, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return resp.StatusCode, nil
}
