package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"busytime"
	"busytime/internal/stats"
)

// Config assembles one daemon instance. The zero value of optional fields
// picks production defaults; addresses use the usual "host:port" forms
// (":0" for an ephemeral port, the way the tests run).
type Config struct {
	ControlAddr string // HTTP control plane listen address; "" disables
	DataAddr    string // framed TCP data plane listen address; "" disables

	Algorithm string             // control-plane solve algorithm (default "firstfit")
	Policy    string             // data-plane arrival policy (default "firstfit")
	G         int                // parallelism parameter g (default 4)
	Window    int                // per-tenant live-window presize hint
	Workers   int                // solver workers / pool shards (0 = GOMAXPROCS)
	Admission busytime.Admission // per-tenant limits; zero admits everything

	// MaxBatch caps how many frames one connection read drains into a
	// single processing pass (and so how many placements share one
	// shard-lock acquisition). Default 64.
	MaxBatch int

	// DrainGrace bounds how long a draining connection keeps answering
	// frames (with shutdown rejects for new placements) before the server
	// closes it. Default 250ms.
	DrainGrace time.Duration

	Logf func(format string, args ...any) // nil discards
}

func (c *Config) setDefaults() {
	if c.Algorithm == "" {
		c.Algorithm = "firstfit"
	}
	if c.Policy == "" {
		c.Policy = "firstfit"
	}
	if c.G == 0 {
		c.G = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Control-plane connection deadlines: a client must finish sending a
// request's headers within controlReadHeaderTimeout, and a keep-alive
// connection with no request in flight is closed after controlIdleTimeout,
// so a stalled or idle client cannot hold a connection and its goroutine
// forever.
const (
	controlReadHeaderTimeout = 5 * time.Second
	controlIdleTimeout       = 60 * time.Second
)

// Server is the daemon: Solver sessions for the control plane, one
// multi-tenant OnlinePool for the data plane, both fronted by listeners
// with per-endpoint latency histograms and a graceful drain. Construct
// with New, bind with Start, then either Wait on the listeners or drive
// the lifecycle with Run.
type Server struct {
	cfg Config
	// solver is the warm arena session behind /v1/batch and the tenant
	// pool; oneShot serves /v1/solve with fresh schedules, copies taken
	// before Solve returns its arena, because that handler reads the
	// schedule's assignment afterwards, when a concurrent solve could
	// already be reusing the arena. Each solver leases from its own
	// cfg.Workers arenas, so at most that many of its solves run at once.
	// oneShot is nil when the control plane is off.
	solver  *busytime.Solver
	oneShot *busytime.Solver
	pool    *busytime.OnlinePool

	ctrlLn  net.Listener
	dataLn  net.Listener
	httpSrv *http.Server

	start    time.Time
	draining atomic.Bool

	mu    sync.Mutex
	conns map[*dconn]struct{}
	wg    sync.WaitGroup // accept loops + data-plane connections

	// Per-endpoint latency histograms. Data-plane entries record the
	// batch's service time (first byte decoded → replies ready to flush)
	// once per frame, so a frame that waited behind its batch carries that
	// wait; control-plane entries record per-request handler time.
	placeHist   stats.Hist
	releaseHist stats.Hist
	statsHist   stats.Hist
	solveHist   stats.Hist

	frames      atomic.Uint64 // data-plane request frames processed
	accepted    atomic.Uint64 // placements accepted
	rejRate     atomic.Uint64
	rejLive     atomic.Uint64
	rejShutdown atomic.Uint64
	rejInvalid  atomic.Uint64
}

// New validates the configuration and assembles the daemon's solver and
// tenant pool; no sockets are touched until Start.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.ControlAddr == "" && cfg.DataAddr == "" {
		return nil, fmt.Errorf("server: no listen addresses configured")
	}
	solver, err := busytime.New(
		busytime.WithAlgorithm(cfg.Algorithm),
		busytime.WithWorkers(cfg.Workers),
		busytime.WithWindow(cfg.Window),
		busytime.WithAdmission(cfg.Admission),
	)
	if err != nil {
		return nil, err
	}
	// Only the control plane's /v1/solve uses the one-shot solver, so a
	// data-plane-only daemon holds no idle arenas for it.
	var oneShot *busytime.Solver
	if cfg.ControlAddr != "" {
		oneShot, err = busytime.New(
			busytime.WithAlgorithm(cfg.Algorithm),
			busytime.WithWorkers(cfg.Workers),
			busytime.WithFreshSchedules(),
		)
		if err != nil {
			return nil, err
		}
	}
	pool, err := solver.OnlinePool(cfg.G, cfg.Policy)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:     cfg,
		solver:  solver,
		oneShot: oneShot,
		pool:    pool,
		conns:   make(map[*dconn]struct{}),
	}, nil
}

// Start binds the configured listeners and launches the serve loops; it
// returns once both planes are accepting (so ":0" callers can read the
// resolved addresses from ControlAddr/DataAddr).
func (s *Server) Start() error {
	s.start = time.Now()
	if s.cfg.ControlAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.ControlAddr)
		if err != nil {
			return err
		}
		s.ctrlLn = ln
		s.httpSrv = &http.Server{
			Handler:           s.controlMux(),
			ReadHeaderTimeout: controlReadHeaderTimeout,
			IdleTimeout:       controlIdleTimeout,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				s.cfg.Logf("busyschedd: control plane: %v", err)
			}
		}()
		s.cfg.Logf("busyschedd: control plane listening on %s", ln.Addr())
	}
	if s.cfg.DataAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.DataAddr)
		if err != nil {
			if s.ctrlLn != nil {
				s.ctrlLn.Close()
			}
			return err
		}
		s.dataLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln)
		s.cfg.Logf("busyschedd: data plane listening on %s", ln.Addr())
	}
	return nil
}

// ControlAddr returns the bound control-plane address (nil if disabled).
func (s *Server) ControlAddr() net.Addr {
	if s.ctrlLn == nil {
		return nil
	}
	return s.ctrlLn.Addr()
}

// DataAddr returns the bound data-plane address (nil if disabled).
func (s *Server) DataAddr() net.Addr {
	if s.dataLn == nil {
		return nil
	}
	return s.dataLn.Addr()
}

// Run starts the daemon and serves until ctx is cancelled, then drains:
// listeners close, the pool rejects new placements with typed shutdown
// frames, in-flight frames complete, and connections wind down within
// DrainGrace. It returns the shutdown error (nil on a clean drain).
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	grace := s.cfg.DrainGrace + 5*time.Second
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return s.Shutdown(sctx)
}

// Shutdown drains the daemon: stop accepting, flip the pool into rejecting
// new placements (ErrPoolClosed → typed shutdown frames), give every open
// data connection DrainGrace to finish its in-flight frames and read the
// rejects, then close everything and wait for the serve loops. Safe to
// call once; ctx bounds the total wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.pool.Close()
	if s.dataLn != nil {
		s.dataLn.Close()
	}

	// Wake blocked reads: every connection gets DrainGrace to pick up its
	// final frames; frames that arrive in the window get shutdown rejects.
	deadline := time.Now().Add(s.cfg.DrainGrace)
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx) // closes the control listener too
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Force: close every remaining connection and wait again.
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return httpErr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// acceptLoop owns the data-plane listener.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}
