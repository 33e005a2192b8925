// Command cpprserve is the CPPR service front end: an HTTP JSON server
// hosting a multi-tenant design registry with request coalescing,
// admission control, per-query deadlines and graceful shutdown (see
// DESIGN.md §13).
//
//	cpprserve -addr :8080 -preload leon2                 # serve a preset
//	cpprserve -max-concurrent 8 -max-queue 32            # overload knobs
//	CPPR_FAULTS=serve.batcher.flush:delay:5ms cpprserve  # chaos mode
//	cpprserve -smoke                                     # CI self-test
//
// Endpoints: POST /v1/designs, GET /v1/designs, DELETE /v1/designs/{id},
// POST /v1/designs/{id}/arc, POST /v1/query, GET /stats, GET /metrics,
// GET /healthz.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/internal/faultinject"
	"fastcppr/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxBatch   = flag.Int("max-batch", 16, "coalescing batch size (1 disables coalescing)")
		maxWait    = flag.Duration("max-wait", 2*time.Millisecond, "longest a request waits behind a busy design's in-flight flush")
		maxConc    = flag.Int("max-concurrent", 0, "admission slots (0 = 2x GOMAXPROCS)")
		maxQueue   = flag.Int("max-queue", 0, "admission wait-queue bound (0 = 4x slots)")
		maxDesigns = flag.Int("max-designs", 64, "registry capacity")
		defTimeout = flag.Duration("default-timeout", 30*time.Second, "per-query deadline when the request sets none")
		workers    = flag.Int("workers", 0, "batch-executor worker pool per design (0 = GOMAXPROCS)")
		qthreads   = flag.Int("query-threads", 0, "default intra-query threads (0 = GOMAXPROCS)")
		preload    = flag.String("preload", "", "comma-separated presets to load at startup, each preset[:scale[:corners]] (id = preset name)")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		smoke      = flag.Bool("smoke", false, "run the self-test sequence (load, query, shed under saturation, drain) and exit")
	)
	flag.Parse()

	// Chaos arming: a production binary with CPPR_FAULTS unset pays one
	// atomic load per site and nothing else.
	disarm, err := faultinject.ArmFromEnv("CPPR_FAULTS")
	if err != nil {
		fatal(err)
	}
	defer disarm()

	cfg := serve.Config{
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		MaxDesigns:     *maxDesigns,
		DefaultTimeout: *defTimeout,
		Parallelism:    cppr.Parallelism{Workers: *workers, QueryThreads: *qthreads},
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fatal(err)
		}
		fmt.Println("smoke: ok")
		return
	}

	srv := serve.New(cfg)
	if err := preloadDesigns(srv, *preload); err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("cpprserve: listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop admitting, drain in-flight queries and
	// batchers, then close the listener.
	fmt.Println("cpprserve: draining...")
	drained := srv.Close(*drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fatal(err)
	}
	if !drained {
		fmt.Fprintln(os.Stderr, "cpprserve: drain budget exceeded; exiting with work in flight")
		os.Exit(1)
	}
	fmt.Println("cpprserve: drained cleanly")
}

// preloadDesigns loads each spec "preset[:scale[:corners]]" under the
// preset's own name.
func preloadDesigns(srv *serve.Server, specs string) error {
	if specs == "" {
		return nil
	}
	for _, spec := range strings.Split(specs, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		req := serve.LoadRequest{ID: parts[0], Preset: parts[0]}
		if len(parts) > 1 {
			s, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return fmt.Errorf("bad -preload scale in %q: %v", spec, err)
			}
			req.Scale = s
		}
		if len(parts) > 2 {
			c, err := strconv.Atoi(parts[2])
			if err != nil {
				return fmt.Errorf("bad -preload corners in %q: %v", spec, err)
			}
			req.Corners = c
		}
		if len(parts) > 3 {
			return fmt.Errorf("bad -preload spec %q (want preset[:scale[:corners]])", spec)
		}
		d, err := serve.BuildDesign(req)
		if err != nil {
			return err
		}
		if err := srv.Registry().Load(req.ID, d); err != nil {
			return err
		}
		fmt.Printf("cpprserve: preloaded %q (scale %g)\n", req.ID, req.Scale)
	}
	return nil
}

// runSmoke is the CI self-test: a real listener, a preset load, a
// served query, forced load-shedding at saturation (checking the typed
// error and Retry-After), and a clean drain.
func runSmoke(cfg serve.Config) error {
	// Tight limits make saturation cheap to force.
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	base := "http://" + ln.Addr().String()

	post := func(path string, body any) (*http.Response, []byte, error) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp, out, err
	}

	// Load.
	preset := gen.PresetNames()[0]
	resp, body, err := post("/v1/designs", serve.LoadRequest{ID: "smoke", Preset: preset, Scale: 0.005})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("load: status %d: %s", resp.StatusCode, body)
	}

	// Query.
	resp, body, err = post("/v1/query", serve.QueryRequest{Design: "smoke", K: 5})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query: status %d: %s", resp.StatusCode, body)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Errorf("query: bad response: %v", err)
	}
	if len(qr.Report.Paths) == 0 {
		return fmt.Errorf("query: no paths reported")
	}

	// Saturate: with 1 slot + 1 queue entry, a burst must shed at least
	// one request with 429 + Retry-After, and every admitted request
	// must complete.
	const burst = 16
	var wg sync.WaitGroup
	codes := make([]int, burst)
	retryAfter := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, err := post("/v1/query", serve.QueryRequest{Design: "smoke", K: 100})
			if err == nil {
				codes[i] = resp.StatusCode
				retryAfter[i] = resp.Header.Get("Retry-After")
			}
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				return fmt.Errorf("shed response missing Retry-After")
			}
		default:
			return fmt.Errorf("burst request got status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		return fmt.Errorf("saturation burst: %d ok, %d shed — want both > 0", ok, shed)
	}
	fmt.Printf("smoke: burst of %d: %d served, %d shed with Retry-After\n", burst, ok, shed)

	// Metrics surface.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mbody, []byte("served_admitted,smoke,")) {
		return fmt.Errorf("metrics missing served_admitted line:\n%s", mbody)
	}

	// Drain: refuse new work, then shut the listener down.
	if !srv.Close(10 * time.Second) {
		return fmt.Errorf("drain did not complete")
	}
	resp, _, err = post("/v1/query", serve.QueryRequest{Design: "smoke", K: 1})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("post-drain query: status %d, want 503", resp.StatusCode)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	<-done
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpprserve:", err)
	os.Exit(1)
}
