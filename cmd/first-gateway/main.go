// first-gateway boots a complete in-process FIRST installation (the §4
// deployment: Sophia + Polaris clusters, default model deployments, auth,
// fabric, batch runner) and serves the OpenAI-compatible Inference Gateway
// over HTTP. The simulated substrate runs on a time-dilated clock so cold
// starts take milliseconds.
//
// A demo user is registered at startup and its access token printed, so:
//
//	first-gateway -addr :8080 -scale 1000
//	curl -H "Authorization: Bearer $TOKEN" localhost:8080/v1/models
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/core"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Int64("scale", 1000, "clock speed-up factor for the simulated substrate")
	persist := flag.String("persist", "", "directory for store snapshots (empty = in-memory only)")
	configPath := flag.String("config", "", "installation config JSON (empty = paper's default testbed)")
	shards := flag.Int("shards", 0, "gateway front-end shards (0 = GOMAXPROCS-derived, 1 = single-lock front-end); with -config use the file's gateway.shards")
	flag.Parse()

	var sys *core.System
	var err error
	if *configPath != "" {
		sys, err = core.NewSystemFromFile(*configPath, clock.NewScaled(*scale))
	} else {
		cfg := core.DefaultTestbedConfig(clock.NewScaled(*scale))
		cfg.Gateway.Shards = *shards
		sys, err = core.NewSystem(cfg)
	}
	if err != nil {
		log.Fatalf("building installation: %v", err)
	}
	defer sys.Close()

	if *persist != "" {
		if err := sys.Store.Load(*persist); err != nil {
			log.Printf("warning: loading store snapshot: %v", err)
		}
		defer func() {
			if err := sys.Store.Save(*persist); err != nil {
				log.Printf("warning: saving store snapshot: %v", err)
			}
		}()
	}

	if err := sys.RegisterUser("demo", "demo@anl.gov"); err != nil {
		log.Fatalf("registering demo user: %v", err)
	}
	grant, err := sys.Login("demo")
	if err != nil {
		log.Fatalf("demo login: %v", err)
	}
	fmt.Fprintf(os.Stderr, "first-gateway listening on %s (clock %d×)\n", *addr, *scale)
	fmt.Fprintf(os.Stderr, "demo token (48h):\n  export FIRST_TOKEN=%s\n", grant.AccessToken)
	fmt.Fprintf(os.Stderr, "models: 70B+8B on sophia, 8B federated to polaris, NV-Embed-v2 on sophia\n")

	if err := http.ListenAndServe(*addr, sys.Gateway); err != nil {
		log.Fatal(err)
	}
}
