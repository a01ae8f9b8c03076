package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"busytime"
	"busytime/internal/generator"
)

// startServer boots a daemon on ephemeral ports and tears it down with the
// test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.ControlAddr == "" && cfg.DataAddr == "" {
		cfg.ControlAddr, cfg.DataAddr = "127.0.0.1:0", "127.0.0.1:0"
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// get fetches a control-plane URL and decodes the JSON body.
func get(t *testing.T, srv *Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get("http://" + srv.ControlAddr().String() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestControlPlane(t *testing.T) {
	srv := startServer(t, Config{})
	base := "http://" + srv.ControlAddr().String()

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if code := get(t, srv, "/healthz", &health); code != 200 || health.Status != "ok" || health.Draining {
		t.Fatalf("healthz: code %d, %+v", code, health)
	}

	instance := `{"g":2,"jobs":[{"id":0,"start":0,"end":2},{"id":1,"start":1,"end":3},{"id":2,"start":2,"end":4}]}`
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(instance))
	if err != nil {
		t.Fatal(err)
	}
	var solved solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	if solved.Algorithm != "firstfit" || solved.N != 3 || solved.G != 2 {
		t.Fatalf("solve echo: %+v", solved)
	}
	if solved.Machines < 1 || solved.Cost <= 0 || len(solved.Assignment) != 3 || solved.Ratio < 1 {
		t.Fatalf("solve result: %+v", solved)
	}

	resp, err = http.Post(base+"/v1/batch", "application/json", strings.NewReader("["+instance+","+instance+"]"))
	if err != nil {
		t.Fatal(err)
	}
	var batch []busytime.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch) != 2 || batch[0].Cost != batch[1].Cost || batch[0].Cost != solved.Cost {
		t.Fatalf("batch: %+v", batch)
	}

	// A null batch entry is a per-item error, not a crash of the daemon.
	resp, err = http.Post(base+"/v1/batch", "application/json", strings.NewReader("["+instance+",null]"))
	if err != nil {
		t.Fatal(err)
	}
	batch = nil
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(batch) != 2 || batch[0].Err != "" || batch[0].Cost != solved.Cost || batch[1].Err == "" {
		t.Fatalf("batch with a null entry: status %d, %+v", resp.StatusCode, batch)
	}
	if code := get(t, srv, "/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz after a null batch entry: code %d, %+v", code, health)
	}

	resp, err = http.Post(base+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad instance: status %d, want 400", resp.StatusCode)
	}

	// Tenant lifecycle: a data-plane placement creates the session the
	// control plane then inspects, compares, and drops.
	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, code, err := cl.Place(h, 0, 10, 1); err != nil || code != 0 {
		t.Fatalf("place: code %d, %v", code, err)
	}

	var tenants struct {
		Count   int      `json:"count"`
		Tenants []string `json:"tenants"`
	}
	if code := get(t, srv, "/v1/tenants", &tenants); code != 200 || tenants.Count != 1 || tenants.Tenants[0] != "acme" {
		t.Fatalf("tenants: code %d, %+v", code, tenants)
	}
	var st busytime.OnlineStats
	if code := get(t, srv, "/v1/tenants/acme/stats", &st); code != 200 || st.Placed != 1 || st.Live != 1 {
		t.Fatalf("tenant stats: code %d, %+v", code, st)
	}
	if code := get(t, srv, "/v1/tenants/ghost/stats", nil); code != 404 {
		t.Fatalf("ghost stats: code %d, want 404", code)
	}

	resp, err = http.Post(base+"/v1/tenants/acme/offline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cmp offlineResponse
	if err := json.NewDecoder(resp.Body).Decode(&cmp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || cmp.Tenant != "acme" || cmp.WindowCost <= 0 {
		t.Fatalf("offline: status %d, %+v", resp.StatusCode, cmp)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/tenants/acme", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("drop: status %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("re-drop: status %d, want 404", resp.StatusCode)
	}

	var snap StatsSnapshot
	if code := get(t, srv, "/stats", &snap); code != 200 {
		t.Fatalf("stats: code %d", code)
	}
	// Solve observes once per HTTP request: one /v1/solve + two /v1/batch.
	if snap.Frames == 0 || snap.Accepted != 1 || snap.Solve.Count != 3 || snap.Place.Count != 1 {
		t.Fatalf("stats counters: %+v", snap)
	}
}

// TestOneShotSolverFollowsControlPlane pins that only a daemon with a
// control plane builds the one-shot /v1/solve solver: a data-plane-only
// daemon holds none (nor its idle arenas), and a control-plane-only daemon
// answers /v1/solve with the schedule a plain Solver computes.
func TestOneShotSolverFollowsControlPlane(t *testing.T) {
	data, err := New(Config{DataAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if data.oneShot != nil {
		t.Fatal("a data-plane-only daemon built a one-shot solver")
	}
	srv := startServer(t, Config{ControlAddr: "127.0.0.1:0"})
	if srv.oneShot == nil {
		t.Fatal("a control-plane daemon has no one-shot solver")
	}
	in := generator.General(3, 200, 2, 100, 10)
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+srv.ControlAddr().String()+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var solved solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	plain, err := busytime.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || solved.Machines != want.Machines || solved.Cost != want.Cost || !maps.Equal(solved.Assignment, want.Schedule.Assignment()) {
		t.Fatalf("solve: status %d, %d machines, cost %v; want 200, %d machines, cost %v, the same assignment",
			resp.StatusCode, solved.Machines, solved.Cost, want.Machines, want.Cost)
	}
}

// TestControlPlaneConcurrentSolve posts /v1/solve from four clients at once
// to a one-worker daemon, alternating a 3-job and a 1000-job instance: every
// reply must carry its own instance's assignment and cost. The handler reads
// the assignment after Solve returns, so a schedule left on a recycled arena
// could be overwritten, or indexed past its end, by a concurrent solve.
func TestControlPlaneConcurrentSolve(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
	url := "http://" + srv.ControlAddr().String() + "/v1/solve"
	instances := []*busytime.Instance{
		generator.General(1, 3, 2, 4, 3),
		generator.General(2, 1000, 4, 500, 20),
	}
	ref, err := busytime.New(busytime.WithFreshSchedules())
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(instances))
	want := make([]busytime.Result, len(instances))
	wantAssign := make([]map[int]int, len(instances))
	for i, in := range instances {
		if bodies[i], err = json.Marshal(in); err != nil {
			t.Fatal(err)
		}
		if want[i], err = ref.Solve(context.Background(), in); err != nil {
			t.Fatal(err)
		}
		wantAssign[i] = want[i].Schedule.Assignment()
	}

	const clients, posts = 4, 100
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				k := (c + i) % len(instances)
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					errs <- fmt.Errorf("client %d post %d: %v", c, i, err)
					return
				}
				var got solveResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d post %d: status %d, %v", c, i, resp.StatusCode, err)
					return
				}
				if w := want[k]; got.N != len(instances[k].Jobs) || got.Cost != w.Cost ||
					!maps.Equal(got.Assignment, wantAssign[k]) {
					errs <- fmt.Errorf("client %d post %d: n=%d cost=%v with %d assignments, want n=%d cost=%v",
						c, i, got.N, got.Cost, len(got.Assignment), len(instances[k].Jobs), w.Cost)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestControlPlaneStalledHeaderClosed sends a request whose header never
// ends: the control plane must close the connection once the header
// timeout passes, instead of holding it and its goroutine open.
func TestControlPlaneStalledHeaderClosed(t *testing.T) {
	srv := startServer(t, Config{})
	conn, err := net.Dial("tcp", srv.ControlAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	limit := controlReadHeaderTimeout + 2*time.Second
	if err := conn.SetReadDeadline(time.Now().Add(limit)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with a stalled header still open after %v", time.Since(start).Round(time.Millisecond))
	}
}

// TestDataPlaneRoundTrip pins the protocol against the library: the same
// arrival stream placed through the daemon and through a direct OnlinePool
// must produce identical machines and feed indexes.
func TestDataPlaneRoundTrip(t *testing.T) {
	srv := startServer(t, Config{})

	direct, err := busytime.New()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := direct.OnlinePool(4, "firstfit")
	if err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("t0")
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		start := float64(i) * 0.5
		end := start + 3.7
		demand := 1 + i%2
		m, j, code, err := cl.Place(h, start, end, demand)
		if err != nil || code != 0 {
			t.Fatalf("place %d: code %d, %v", i, code, err)
		}
		wm, wj, err := pool.PlaceDemand("t0", busytime.Interval{Start: start, End: end}, demand)
		if err != nil {
			t.Fatal(err)
		}
		if m != wm || j != wj {
			t.Fatalf("arrival %d: daemon (m=%d, j=%d), library (m=%d, j=%d)", i, m, j, wm, wj)
		}
	}

	// Releases agree too, including the already-departed double release.
	ok, err := cl.Release(h, n-1)
	if err != nil || !ok {
		t.Fatalf("release: %v %v", ok, err)
	}
	if ok, _ := pool.Release("t0", n-1); !ok {
		t.Fatal("library release disagrees")
	}
	ok, err = cl.Release(h, n-1)
	if err != nil || ok {
		t.Fatalf("double release: ok=%v, %v", ok, err)
	}

	st, err := cl.Stats(h)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := pool.Stats("t0")
	if st != want {
		t.Fatalf("stats over the wire %+v != library %+v", st, want)
	}

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestDataPlanePipelined sends a mixed batch without intermediate reads and
// checks the replies come back in request order.
func TestDataPlanePipelined(t *testing.T) {
	srv := startServer(t, Config{ControlAddr: "127.0.0.1:0", DataAddr: "127.0.0.1:0", MaxBatch: 8})
	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("pipe")
	if err != nil {
		t.Fatal(err)
	}

	const n = 64 // spans several MaxBatch=8 server batches
	for i := 0; i < n; i++ {
		if err := cl.SendPlace(h, float64(i), float64(i)+2, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SendStats(h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cl.SendRelease(h, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := cl.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if r.Op != opPlaced || r.Job != i {
			t.Fatalf("reply %d: op 0x%02x job %d", i, r.Op, r.Job)
		}
	}
	r, err := cl.ReadReply()
	if err != nil || r.Op != opStatsOK {
		t.Fatalf("stats reply: op 0x%02x, %v", r.Op, err)
	}
	released := 0
	for i := 0; i < n; i++ {
		r, err := cl.ReadReply()
		if err != nil || r.Op != opReleased {
			t.Fatalf("release reply %d: op 0x%02x, %v", i, r.Op, err)
		}
		if r.OK {
			released++
		}
	}
	// Job i departs naturally once a later start passes i+2, so only the
	// tail of the stream is still live to release; at least those succeed.
	if released == 0 || cl.Pending() != 0 {
		t.Fatalf("released %d, pending %d", released, cl.Pending())
	}
}

// TestAdmissionRejectFrames maps every admission failure onto its typed
// reject frame and checks the daemon attributes them in /stats.
func TestAdmissionRejectFrames(t *testing.T) {
	srv := startServer(t, Config{
		ControlAddr: "127.0.0.1:0",
		DataAddr:    "127.0.0.1:0",
		Admission:   busytime.Admission{MaxLive: 2},
	})
	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("capped")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, _, code, err := cl.Place(h, float64(i), 100, 1); err != nil || code != 0 {
			t.Fatalf("place %d: code %d (%s), %v", i, code, RejectString(code), err)
		}
	}
	if _, _, code, err := cl.Place(h, 2, 100, 1); err != nil || code != RejectLive {
		t.Fatalf("over-cap place: code %d (%s), %v", code, RejectString(code), err)
	}
	// Malformed coordinates never reach the session: reversed endpoints and
	// NaN are answered with RejectInvalid, and the connection stays usable.
	if _, _, code, err := cl.Place(h, 5, 4, 1); err != nil || code != RejectInvalid {
		t.Fatalf("reversed interval: code %d (%s), %v", code, RejectString(code), err)
	}
	if _, _, code, err := cl.Place(h, math.NaN(), 10, 1); err != nil || code != RejectInvalid {
		t.Fatalf("NaN start: code %d (%s), %v", code, RejectString(code), err)
	}
	if _, _, code, err := cl.Place(h, 0, math.Inf(1), 1); err != nil || code != RejectInvalid {
		t.Fatalf("infinite end: code %d (%s), %v", code, RejectString(code), err)
	}
	// Demand out of range is a session-level rejection, same typed frame —
	// judged on a fresh tenant so the live cap above doesn't shadow it. The
	// rejected frame's far-future start must not move the tenant's clock:
	// the next valid arrival is accepted.
	hd, err := cl.Open("demander")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, code, err := cl.Place(hd, 1e18, 1e18, 99); err != nil || code != RejectInvalid {
		t.Fatalf("demand 99: code %d (%s), %v", code, RejectString(code), err)
	}
	if _, _, code, err := cl.Place(hd, 6, 10, 1); err != nil || code != 0 {
		t.Fatalf("place after a rejected frame: code %d (%s), %v", code, RejectString(code), err)
	}

	snap := srv.StatsSnapshot()
	if snap.Rejected.Live != 1 || snap.Rejected.Invalid != 4 || snap.Accepted != 3 {
		t.Fatalf("reject attribution: %+v, accepted %d", snap.Rejected, snap.Accepted)
	}

	// A rate-limited tenant: burst of 1, negligible refill.
	srv2 := startServer(t, Config{
		ControlAddr: "127.0.0.1:0",
		DataAddr:    "127.0.0.1:0",
		Admission:   busytime.Admission{Rate: 1e-9, Burst: 1},
	})
	cl2, err := Dial(srv2.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	h2, err := cl2.Open("throttled")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, code, err := cl2.Place(h2, 0, 10, 1); err != nil || code != 0 {
		t.Fatalf("first place: code %d, %v", code, err)
	}
	if _, _, code, err := cl2.Place(h2, 1, 10, 1); err != nil || code != RejectRate {
		t.Fatalf("second place: code %d (%s), %v", code, RejectString(code), err)
	}
}

// TestProtocolHangup pins the failure mode of a misbehaving client: a
// hangup frame naming the violation, then a closed connection.
func TestProtocolHangup(t *testing.T) {
	srv := startServer(t, Config{ControlAddr: "127.0.0.1:0", DataAddr: "127.0.0.1:0"})
	for name, frame := range map[string][]byte{
		"unknown opcode": {0, 0, 0, 0, 0x7f},
		"unknown handle": append([]byte{placeLen, 0, 0, 0, opPlace}, make([]byte, placeLen)...),
		"short place":    {2, 0, 0, 0, opPlace, 1, 2},
	} {
		nc, err := net.Dial("tcp", srv.DataAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		var hdr [frameHeader]byte
		op, payload, _, err := readFrameInto(nc, &hdr, nil)
		if err != nil || op != opHangup {
			t.Fatalf("%s: op 0x%02x payload %q, %v", name, op, payload, err)
		}
		if _, err := nc.Read(hdr[:1]); err != io.EOF {
			t.Fatalf("%s: connection still open after hangup: %v", name, err)
		}
		nc.Close()
	}
}

// TestDrainShutdown drives the drain sequence end to end: frames arriving
// during the grace window get typed shutdown rejects while releases still
// work, Shutdown returns clean, and no server goroutines survive.
func TestDrainShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := startServer(t, Config{
		ControlAddr: "127.0.0.1:0",
		DataAddr:    "127.0.0.1:0",
		DrainGrace:  time.Second,
	})
	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("draining")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, code, err := cl.Place(h, 0, 100, 1); err != nil || code != 0 {
		t.Fatalf("pre-drain place: code %d, %v", code, err)
	}

	sd := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sd <- srv.Shutdown(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New placements during the grace window: typed shutdown reject.
	if _, _, code, err := cl.Place(h, 1, 100, 1); err != nil || code != RejectShutdown {
		t.Fatalf("draining place: code %d (%s), %v", code, RejectString(code), err)
	}
	// Finishing work is never rejected.
	if ok, err := cl.Release(h, 0); err != nil || !ok {
		t.Fatalf("draining release: ok=%v, %v", ok, err)
	}
	// Telemetry stays readable through the drain.
	if st, err := cl.Stats(h); err != nil || st.Released != 1 {
		t.Fatalf("draining stats: %+v, %v", st, err)
	}

	if err := <-sd; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The connection is gone and new dials fail: both listeners are down.
	if err := cl.Ping(); err == nil {
		t.Fatal("connection survived shutdown")
	}
	if _, err := net.DialTimeout("tcp", srv.DataAddr().String(), 250*time.Millisecond); err == nil {
		t.Fatal("data listener survived shutdown")
	}

	snap := srv.StatsSnapshot()
	if !snap.Draining || snap.Rejected.Shutdown != 1 {
		t.Fatalf("post-drain stats: %+v", snap)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// placeSlab builds the fixed framing of n place frames for handle h and
// returns the slab plus a patch function that rewrites the interval of
// every frame in place (no allocation) so successive batches keep the
// per-tenant arrival order advancing.
func placeSlab(n int, h uint32) ([]byte, func(t0 float64)) {
	const frameLen = frameHeader + placeLen
	slab := make([]byte, n*frameLen)
	for k := 0; k < n; k++ {
		f := slab[k*frameLen:]
		putHeader(f, opPlace, placeLen)
		binary.LittleEndian.PutUint32(f[frameHeader:], h)
		binary.LittleEndian.PutUint32(f[frameHeader+20:], 1)
	}
	patch := func(t0 float64) {
		for k := 0; k < n; k++ {
			f := slab[k*frameLen+frameHeader:]
			start := t0 + float64(k)
			binary.LittleEndian.PutUint64(f[4:], math.Float64bits(start))
			binary.LittleEndian.PutUint64(f[12:], math.Float64bits(start+0.5))
		}
	}
	return slab, patch
}

// TestServePlaceZeroAllocSteadyState is the acceptance gate: after warm-up,
// one full server batch pass — frame decode, PlaceBatch, reply encode,
// histogram observation — allocates nothing. It drives the connection loop
// directly over an in-memory reader, since AllocsPerRun measures the
// calling goroutine.
func TestServePlaceZeroAllocSteadyState(t *testing.T) {
	srv, err := New(Config{DataAddr: "127.0.0.1:0"}) // configured, never started
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	c := &dconn{
		s:  srv,
		br: bufio.NewReaderSize(rd, 32<<10),
		bw: bufio.NewWriterSize(io.Discard, 32<<10),
	}

	var open bytes.Buffer
	var hdr [frameHeader]byte
	if err := writeFrame(&open, &hdr, opOpen, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	rd.Reset(open.Bytes())
	c.br.Reset(rd)
	if err := c.serveBatch(); err != nil {
		t.Fatal(err)
	}

	const batch = 16
	slab, patch := placeSlab(batch, 0)
	clock := 0.0
	step := func() {
		patch(clock)
		clock += batch
		rd.Reset(slab)
		c.br.Reset(rd)
		if err := c.serveBatch(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // warm-up: session ring, batch scratch, buffers
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state serve batch allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkServePlaceLoopback is the daemon's end-to-end hot path: batches
// of 16 pipelined place frames over real loopback TCP, both sides of the
// protocol in the measured loop. CI holds its -benchmem allocs/op (which
// count the server goroutine too) against ci/alloc-budget-serve-place.txt.
func BenchmarkServePlaceLoopback(b *testing.B) {
	srv, err := New(Config{DataAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("bench")
	if err != nil {
		b.Fatal(err)
	}

	const batch = 16
	clock := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if b.N-done < n {
			n = b.N - done
		}
		for k := 0; k < n; k++ {
			if err := cl.SendPlace(h, clock, clock+0.5, 1); err != nil {
				b.Fatal(err)
			}
			clock++
		}
		if err := cl.Flush(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < n; k++ {
			r, err := cl.ReadReply()
			if err != nil {
				b.Fatal(err)
			}
			if r.Op != opPlaced {
				b.Fatalf("reply op 0x%02x (%s)", r.Op, RejectString(r.Code))
			}
		}
		done += n
	}
}

// TestServeThroughputGate is the ISSUE 9 acceptance bar: ≥ 1e6 placements/s
// end to end over loopback with batching ≥ 16. Wall-clock gates flake on
// loaded shared runners, so it only arms under BUSYTIME_SERVE_GATE=1 (the
// CI daemon job sets it).
func TestServeThroughputGate(t *testing.T) {
	if os.Getenv("BUSYTIME_SERVE_GATE") == "" {
		t.Skip("set BUSYTIME_SERVE_GATE=1 to run the loopback throughput gate")
	}
	srv := startServer(t, Config{ControlAddr: "127.0.0.1:0", DataAddr: "127.0.0.1:0"})
	cl, err := Dial(srv.DataAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.Open("gate")
	if err != nil {
		t.Fatal(err)
	}

	const batch = 64
	const total = 2_000_000
	place := func(n int, clock *float64) {
		for done := 0; done < n; {
			m := batch
			if n-done < m {
				m = n - done
			}
			for k := 0; k < m; k++ {
				if err := cl.SendPlace(h, *clock, *clock+0.5, 1); err != nil {
					t.Fatal(err)
				}
				*clock++
			}
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < m; k++ {
				if r, err := cl.ReadReply(); err != nil || r.Op != opPlaced {
					t.Fatalf("reply op 0x%02x, %v", r.Op, err)
				}
			}
			done += m
		}
	}
	clock := 0.0
	place(total/10, &clock) // warm-up
	t0 := time.Now()
	place(total, &clock)
	rate := float64(total) / time.Since(t0).Seconds()
	t.Logf("loopback: %.0f placements/s (batch %d)", rate, batch)
	if rate < 1e6 {
		t.Fatalf("throughput %.0f placements/s below the 1e6 gate", rate)
	}
}

// TestStatsSnapshotJSON pins the telemetry document's field names — the
// scripting surface busybench and the e2e test parse.
func TestStatsSnapshotJSON(t *testing.T) {
	srv, err := New(Config{DataAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srv.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"uptime_sec"`, `"draining"`, `"tenants"`, `"frames"`, `"accepted"`,
		`"rejected"`, `"rate"`, `"live"`, `"shutdown"`, `"invalid"`,
		`"place"`, `"release"`, `"tenant_stats"`, `"solve"`,
		`"count"`, `"mean_ns"`, `"p50_ns"`, `"p95_ns"`, `"p99_ns"`, `"p999_ns"`, `"max_ns"`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Fatalf("stats document missing %s:\n%s", key, buf.String())
		}
	}
	var round StatsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("stats document does not round-trip: %v", err)
	}
}

// TestRejectString covers the wire-code naming used in logs and bench output.
func TestRejectString(t *testing.T) {
	for code, want := range map[byte]string{
		RejectRate:     "rate-limited",
		RejectLive:     "live-limit",
		RejectShutdown: "shutting-down",
		RejectInvalid:  "invalid",
		0x42:           fmt.Sprintf("reject(%d)", 0x42),
	} {
		if got := RejectString(code); got != want {
			t.Errorf("RejectString(%d) = %q, want %q", code, got, want)
		}
	}
}
