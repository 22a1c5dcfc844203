// Command wdcserved serves the invalidation-report engine over the wire:
// the same capability backends the simulation core runs, bound to real
// sockets instead of the DES.
//
//   - UDP broadcast plane: every invalidation report the algorithm schedules
//     leaves as one datagram (u8 mcs | ir wire form) to -udp-target.
//   - TCP uplink query plane: length-prefixed frames carrying item queries
//     and UIR-style catch-up requests (see internal/serve wire docs).
//   - HTTP control plane: /v1/status, /v1/capabilities, /v1/update (db-update
//     injection), /v1/signals, /v1/advance (virtual clock), /metrics
//     (Prometheus), /debug/pprof. The algorithm is fixed for the process's
//     life by -algo.
//
// Usage:
//
//	wdcserved -algo hybrid -tcp 127.0.0.1:0 -http 127.0.0.1:0 \
//	          -udp-target 127.0.0.1:9999 -clock wall
//
// On startup the bound addresses are printed as one JSON line on stdout, so
// harnesses spawning the daemon on ephemeral ports can find the planes. With
// -clock virtual the engine clock moves only through /v1/advance — the mode
// the DES conformance oracle drives in lock-step. SIGINT/SIGTERM shut down
// gracefully: in-flight TCP queries drain and a final catch-up report covers
// everything since the last broadcast.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/serve/rest"
)

func main() {
	cfg := serve.DefaultRuntimeConfig()

	algo := flag.String("algo", cfg.Algo, "invalidation algorithm: "+strings.Join(ir.Names, ", "))
	seed := flag.Uint64("seed", cfg.Seed, "master RNG seed (db update stream)")
	items := flag.Int("items", cfg.DB.NumItems, "database items")
	itemBits := flag.Int("item-bits", cfg.DB.ItemBits, "payload bits per item")
	updateRate := flag.Float64("update-rate", cfg.DB.UpdateRate, "self-driving updates/s (0 = ingest-only)")
	interval := flag.Float64("interval", cfg.IR.Interval.Seconds(), "report interval L (s)")
	window := flag.Int("window", cfg.IR.WindowReports, "coverage window K (report periods)")
	coverage := flag.Float64("coverage", cfg.IR.Coverage, "LAIR fast-report coverage target")
	clock := flag.String("clock", "wall", "engine clock: wall (real time) or virtual (/v1/advance)")
	udpTarget := flag.String("udp-target", "", "address receiving broadcast datagrams (empty disables)")
	tcpAddr := flag.String("tcp", "127.0.0.1:0", "query-plane listen address (empty disables)")
	httpAddr := flag.String("http", "127.0.0.1:0", "control-plane listen address (empty disables)")
	ioTimeout := flag.Duration("io-timeout", serve.DefaultIOTimeout, "per-operation deadline on query connections")
	confJSON := flag.String("conf-json", "", "full serve.RuntimeConfig as JSON (overrides other config flags)")
	flag.Parse()

	cfg.Algo = *algo
	cfg.Seed = *seed
	cfg.DB.NumItems = *items
	cfg.DB.ItemBits = *itemBits
	cfg.DB.UpdateRate = *updateRate
	cfg.IR.Interval = des.FromSeconds(*interval)
	cfg.IR.WindowReports = *window
	cfg.IR.Coverage = *coverage
	cfg.IR.NumItems = cfg.DB.NumItems
	if *confJSON != "" {
		if err := json.Unmarshal([]byte(*confJSON), &cfg); err != nil {
			fatal(fmt.Errorf("-conf-json: %w", err))
		}
	}
	if *clock != "wall" && *clock != "virtual" {
		fatal(fmt.Errorf("-clock must be wall or virtual, got %q", *clock))
	}

	srv, err := serve.NewServer(serve.Options{
		Runtime:   cfg,
		WallClock: *clock == "wall",
		UDPTarget: *udpTarget,
		TCPAddr:   *tcpAddr,
		IOTimeout: *ioTimeout,
	})
	if err != nil {
		fatal(err)
	}

	var httpLn net.Listener
	if *httpAddr != "" {
		httpLn, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		go func() { _ = http.Serve(httpLn, rest.Handler(srv)) }()
	}

	addrs := struct {
		Algo      string `json:"algo"`
		Clock     string `json:"clock"`
		TCP       string `json:"tcp,omitempty"`
		HTTP      string `json:"http,omitempty"`
		UDPTarget string `json:"udp_target,omitempty"`
	}{Algo: cfg.Algo, Clock: *clock, UDPTarget: *udpTarget}
	if a := srv.TCPAddr(); a != nil {
		addrs.TCP = a.String()
	}
	if httpLn != nil {
		addrs.HTTP = httpLn.Addr().String()
	}
	_ = json.NewEncoder(os.Stdout).Encode(addrs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if httpLn != nil {
		_ = httpLn.Close()
	}
	srv.Shutdown()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdcserved:", err)
	os.Exit(1)
}
