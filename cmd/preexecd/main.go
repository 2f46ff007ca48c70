// Command preexecd runs the pre-execution evaluation service: the package
// serve HTTP/JSON API over one shared stage cache, one workload registry,
// and one bounded simulation worker pool.
//
// Usage:
//
//	preexecd [-addr host:port] [-workers N] [-cachelimit N]
//	         [-backends host1:port,host2:port,...]
//	         [-log text|json] [-pprof host:port]
//
// Endpoints (see the README "Serving" section for request formats):
//
//	GET  /v1/workloads   registry listing
//	POST /v1/workloads   upload a .prx source or synth.Spec
//	POST /v1/evaluate    one benchmark x one configuration
//	POST /v1/sweep       grid evaluation (JSON/CSV, optional progress stream)
//	GET  /v1/stats       cache / request / coalescing / fleet counters
//	GET  /v1/spans       one trace's recorded spans as NDJSON
//	GET  /metrics        Prometheus text exposition of the same counters
//
// -log=json switches the request log to one JSON object per line (method,
// path, status, duration, trace ID). -pprof mounts net/http/pprof on its own
// loopback-only listener, kept off the service address so profiling is never
// exposed where the API is.
//
// With -backends the process runs as a sweep coordinator: /v1/sweep cells
// are homed by their program's trace key on a consistent-hash ring over the
// listed backend preexecds, stolen by backends that run out of their own,
// retried with backoff on failure, failed over away from ejected backends,
// and merged in deterministic grid order — byte-identical to a single-node
// sweep. All other endpoints still evaluate locally, which is also the
// sweep's graceful-degradation path when every backend is down. The fleet
// knobs (-probe-interval, -retries, -eject-after, -attempt-timeout) tune
// the health probe and per-cell retry policy; see the README "Distributed
// sweeps" section.
//
// SIGINT and SIGTERM drain in-flight requests (and cancel their
// simulations) before exiting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"preexec/internal/fleet"
	"preexec/internal/obs"
	"preexec/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8321", "listen address")
		workers    = flag.Int("workers", 0, "server-wide simulation concurrency (0 = all cores)")
		cachelimit = flag.Int("cachelimit", 1024, "stage cache LRU bound, entries per stage (<= 0 = unlimited)")

		logFormat = flag.String("log", "text", "request log format: text or json")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty = disabled")

		backends       = flag.String("backends", "", "comma-separated backend preexecd addresses; turns this process into a sweep coordinator")
		probeInterval  = flag.Duration("probe-interval", 0, "backend health-probe interval (0 = default 2s, negative = disabled)")
		retries        = flag.Int("retries", 0, "per-cell attempt budget across backends (0 = default)")
		ejectAfter     = flag.Int("eject-after", 0, "consecutive failures before a backend is ejected (0 = default)")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "per-attempt deadline for one remote cell (0 = default 2m)")
	)
	flag.Parse()
	log.SetPrefix("preexecd: ")
	log.SetFlags(log.LstdFlags)
	jsonLog := false
	switch *logFormat {
	case "text":
	case "json":
		jsonLog = true
	default:
		log.Fatalf("-log=%q, want text or json", *logFormat)
	}

	opts := []serve.Option{serve.WithWorkers(*workers), serve.WithCacheLimit(*cachelimit)}
	if *backends != "" {
		var addrs []string
		for _, a := range strings.Split(*backends, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		opts = append(opts,
			serve.WithBackends(addrs...),
			serve.WithFleetConfig(serve.FleetConfig{
				ProbeInterval: *probeInterval,
				Fleet: fleet.Config{
					RetryBudget:    *retries,
					EjectAfter:     *ejectAfter,
					AttemptTimeout: *attemptTimeout,
				},
			}))
		log.Printf("coordinator mode over %d backends: %s", len(addrs), strings.Join(addrs, ", "))
	}
	srv := serve.New(opts...)
	defer srv.Close()
	// Request contexts derive from baseCtx so shutdown can actually cancel
	// in-flight simulations (http.Server.Shutdown alone only waits for
	// connections to go idle — a long sweep would burn CPU until the
	// deadline and then be cut off mid-response).
	baseCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	httpSrv := &http.Server{
		Addr:        *addr,
		Handler:     logRequests(srv, jsonLog),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	if *pprofAddr != "" {
		ln, err := pprofListener(*pprofAddr)
		if err != nil {
			log.Fatalf("-pprof: %v", err)
		}
		pprofSrv := &http.Server{Handler: pprofMux()}
		defer pprofSrv.Close()
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
			errc <- pprofSrv.Serve(ln)
		}()
	}
	go func() {
		log.Printf("listening on http://%s (workers=%d, cachelimit=%d)", *addr, srv.Workers(), *cachelimit)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Quick requests get a grace period to finish cleanly; whatever is
		// still simulating after it is cancelled through its own context.
		grace := time.AfterFunc(2*time.Second, cancelRequests)
		defer grace.Stop()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}

// statusWriter records the response status for the request log, forwarding
// Flush so streamed sweeps keep flushing per cell.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func logRequests(next http.Handler, jsonLog bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		// The serve layer stamps every response with its trace ID, so the
		// log line links straight to GET /v1/spans?trace=<id>.
		trace := sw.Header().Get(obs.TraceHeader)
		if !jsonLog {
			log.Printf("%s %s %d %s trace=%s", r.Method, r.URL.Path, status, elapsed, trace)
			return
		}
		line, err := json.Marshal(struct {
			Method   string `json:"method"`
			Path     string `json:"path"`
			Status   int    `json:"status"`
			Duration string `json:"duration"`
			Trace    string `json:"trace,omitempty"`
		}{r.Method, r.URL.Path, status, elapsed.String(), trace})
		if err != nil {
			log.Printf("%s %s %d %s trace=%s (json log: %v)", r.Method, r.URL.Path, status, elapsed, trace, err)
			return
		}
		log.Printf("%s", line)
	})
}

// pprofListener opens the profiling listener, insisting on a loopback host:
// pprof exposes heap contents and CPU control, so it must never bind a
// routable interface by accident.
func pprofListener(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("address %q: %w", addr, err)
	}
	ip := net.ParseIP(host)
	if host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("address %q is not loopback; pprof serves process internals and stays local-only", addr)
	}
	return net.Listen("tcp", addr)
}

// pprofMux mounts the net/http/pprof handlers on a dedicated mux — the
// package's init-time registration targets http.DefaultServeMux, which the
// service handler never serves.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
