package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ifdk/internal/obs"
	"ifdk/internal/router"
	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
)

// ifdkdOptions mirrors the daemon's flag defaults (cmd/ifdkd) with only the
// worker count and node id chosen here. Logs are formatted as the daemon
// formats them but discarded, so the cost stays and the output does not.
func ifdkdOptions(workers int, node string) service.Options {
	return service.Options{
		Workers:           workers,
		QueueCap:          16,
		Aging:             15 * time.Second,
		CacheBytes:        1024 << 20,
		FilterBatchWindow: 200 * time.Microsecond,
		NodeID:            node,
		Logger:            obs.NewLogger(io.Discard, obs.NewLoggerOptions{Level: slog.LevelInfo}, "ifdkd", node),
	}
}

// httpServer is one listener serving a handler until stopped.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *httpServer) stop(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// backend is one in-process ifdkd: a Manager behind its HTTP server.
type backend struct {
	m   *service.Manager
	srv *httpServer
}

// stack is the service topology one round of a workload talks to: one or
// more backends, optionally fronted by a router. url is where load goes.
type stack struct {
	backends []*backend
	rt       *router.Router
	rtSrv    *httpServer
	url      string
}

// startStack starts n backends with the given worker count each; with
// routed set, a router fronts them and url points at the router.
func startStack(n, workers int, routed bool) (*stack, error) {
	st := &stack{}
	for i := 0; i < n; i++ {
		node := ""
		if routed {
			node = fmt.Sprintf("b%d", i)
		}
		m, err := service.OpenManager(ifdkdOptions(workers, node))
		if err != nil {
			_ = st.stop(context.Background())
			return nil, err
		}
		srv, err := serve(service.NewServer(m))
		if err != nil {
			_ = m.Shutdown(context.Background())
			_ = st.stop(context.Background())
			return nil, err
		}
		st.backends = append(st.backends, &backend{m: m, srv: srv})
	}
	st.url = st.backends[0].srv.url
	if routed {
		var bs []router.Backend
		for i, b := range st.backends {
			bs = append(bs, router.Backend{Name: fmt.Sprintf("b%d", i), URL: b.srv.url})
		}
		rt, err := router.New(router.Options{Backends: bs})
		if err != nil {
			_ = st.stop(context.Background())
			return nil, err
		}
		st.rt = rt
		if st.rtSrv, err = serve(rt); err != nil {
			_ = st.stop(context.Background())
			return nil, err
		}
		st.url = st.rtSrv.url
	}
	return st, nil
}

// stop shuts the router first, then each backend's listener and manager.
func (st *stack) stop(ctx context.Context) error {
	var err error
	if st.rtSrv != nil {
		err = errors.Join(err, st.rtSrv.stop(ctx))
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, b := range st.backends {
		err = errors.Join(err, b.srv.stop(ctx), b.m.Shutdown(ctx))
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the router's backend connections
	}
	return err
}

// loadClient is the load generator's SDK client: at most nproc HTTP
// connections, retries counted.
type loadClient struct {
	*client.Client
	tr      *http.Transport
	retries atomic.Int64
	// fine makes await poll with Get at a period of a twentieth of the
	// time waited so far, between 1 ms and pollEvery, so jobs of tens of
	// milliseconds are not timed at the poll period. Otherwise await is
	// the SDK's Await at pollEvery.
	fine bool
}

func (lc *loadClient) await(ctx context.Context, id string, submitted time.Time) (api.View, error) {
	if !lc.fine {
		return lc.Await(ctx, id, pollEvery)
	}
	for {
		v, err := lc.Get(ctx, id)
		if err != nil {
			var apiErr *api.Error
			if !errors.As(err, &apiErr) || !apiErr.Retryable() {
				return api.View{}, err
			}
		} else if v.State.Terminal() {
			return v, nil
		}
		wait := min(max(time.Since(submitted)/20, time.Millisecond), pollEvery)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return api.View{}, ctx.Err()
		}
	}
}

func newLoadClient(url string) *loadClient {
	n := runtime.NumCPU()
	lc := &loadClient{tr: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	lc.Client = client.New(url,
		client.WithHTTPClient(&http.Client{Transport: lc.tr}),
		client.WithRetry(client.Retry{OnRetry: func(string, int, time.Duration) { lc.retries.Add(1) }}))
	return lc
}

func (lc *loadClient) close() { lc.tr.CloseIdleConnections() }

// settleGoroutines waits for the goroutine count to fall back to base; it
// reports the count it last saw.
func settleGoroutines(base int, within time.Duration) (int, bool) {
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rssSampler records the process's peak resident set while it runs, by
// reading VmRSS every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, rssMiB())
			select {
			case <-tick.C:
			case <-s.stop:
				s.done <- peak
				return
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest resident set it saw, MiB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}
