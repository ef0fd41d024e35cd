// Package core assembles the FIRST toolkit (Fig. 1): clusters with PBS-like
// schedulers, Globus-Compute-style endpoints and hub, the auth service with
// its confidential client, the federation router, the batch runner, and the
// OpenAI-compatible gateway — everything a deployment (§4) consists of, in
// process, on a pluggable clock.
package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/argonne-first/first/internal/auth"
	"github.com/argonne-first/first/internal/batch"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/cluster"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/gateway"
	"github.com/argonne-first/first/internal/metrics"
	"github.com/argonne-first/first/internal/perfmodel"
	"github.com/argonne-first/first/internal/scheduler"
	"github.com/argonne-first/first/internal/store"
)

// ClusterSpec declares one federated cluster.
type ClusterSpec struct {
	Name        string
	Nodes       int
	GPUsPerNode int
	GPU         perfmodel.GPUSpec
	// Prologue overrides the scheduler's node-acquisition time.
	Prologue time.Duration
	// Backfill enables scheduler backfill.
	Backfill bool
}

// DeploymentSpec declares one model hosted on one or more clusters; the
// cluster order defines federation priority ("the order in which endpoints
// are listed in the configuration registry", §4.5).
type DeploymentSpec struct {
	Model    string
	Clusters []string
	Config   fabric.DeploymentConfig // Model field is filled in
}

// Config declares a whole FIRST installation.
type Config struct {
	Clock       clock.Clock
	Clusters    []ClusterSpec
	Deployments []DeploymentSpec
	Gateway     gateway.Config
	// TokenCacheTTL sets introspection-cache freshness (0 = default).
	TokenCacheTTL time.Duration
}

// System is a fully wired FIRST installation.
type System struct {
	Clock      clock.Clock
	Auth       *auth.Service
	Policy     *auth.Policy
	Store      *store.Store
	Metrics    *metrics.Registry
	Hub        *fabric.Hub
	Client     *fabric.Client
	Router     *federation.Router
	Batches    *batch.Runner
	Gateway    *gateway.Server
	Clusters   map[string]*cluster.Cluster
	Schedulers map[string]*scheduler.Scheduler
	Endpoints  map[string]*fabric.Endpoint

	clientID     string
	clientSecret string
}

// NewSystem builds and starts an installation.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewScaled(1000)
	}
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("core: no clusters configured")
	}
	routes := make(map[string][]string)
	for _, ds := range cfg.Deployments {
		if err := countRoutes(routes, ds.Model, ds.Clusters); err != nil {
			return nil, err
		}
	}
	sys := &System{
		Clock:      cfg.Clock,
		Store:      store.New(0),
		Metrics:    metrics.NewRegistry(),
		Clusters:   make(map[string]*cluster.Cluster),
		Schedulers: make(map[string]*scheduler.Scheduler),
		Endpoints:  make(map[string]*fabric.Endpoint),
	}

	// Auth: identity providers + the administrators' confidential client.
	sys.Auth = auth.NewService(cfg.Clock, auth.Config{})
	sys.Auth.RegisterProvider(auth.Provider{Name: "anl"})
	sys.Auth.RegisterProvider(auth.Provider{Name: "uchicago"})
	sys.clientID = "first-gateway"
	sys.clientSecret = sys.Auth.RegisterConfidentialClient(sys.clientID)
	sys.Policy = auth.NewPolicy(ScopeInference)

	// Fabric hub + per-cluster endpoints.
	sys.Hub = fabric.NewHub(cfg.Clock, fabric.DefaultHubConfig(), sys.clientID, sys.clientSecret, sys.Metrics)
	for _, cs := range cfg.Clusters {
		if cs.GPU.Name == "" {
			cs.GPU = perfmodel.A100_40
		}
		cl := cluster.New(cs.Name, cs.Nodes, cs.GPUsPerNode, cs.GPU)
		sched := scheduler.New(cl, cfg.Clock, scheduler.Config{Prologue: cs.Prologue, Backfill: cs.Backfill})
		ep, err := fabric.NewEndpoint(fabric.EndpointConfig{ID: "ep-" + cs.Name, Scheduler: sched}, cfg.Clock, sys.Metrics)
		if err != nil {
			return nil, err
		}
		sys.Hub.RegisterEndpoint(ep)
		sys.Clusters[cs.Name] = cl
		sys.Schedulers[cs.Name] = sched
		sys.Endpoints[ep.ID()] = ep
	}

	// Deployments + federation routes (registry order = priority).
	sys.Router = federation.NewRouter()
	for _, ds := range cfg.Deployments {
		dcfg := ds.Config
		dcfg.Model = ds.Model
		for _, clusterName := range ds.Clusters {
			ep, ok := sys.Endpoints["ep-"+clusterName]
			if !ok {
				return nil, fmt.Errorf("core: deployment %s references unknown cluster %q", ds.Model, clusterName)
			}
			if _, err := ep.Deploy(dcfg); err != nil {
				return nil, fmt.Errorf("core: deploying %s on %s: %w", ds.Model, clusterName, err)
			}
			sys.Router.AddRoute(ds.Model, ep)
		}
	}

	// Gateway-side SDK + token cache + batch runner + HTTP server.
	sys.Client = fabric.NewClient(sys.Hub, fabric.ClientConfig{
		Credentials: fabric.Credentials{ClientID: sys.clientID, ClientSecret: sys.clientSecret},
	})
	tokens := auth.NewTokenCache(sys.Auth, cfg.Clock, sys.clientID, sys.clientSecret, cfg.TokenCacheTTL)
	sys.Batches = batch.NewRunner(cfg.Clock, sys.Store)
	gw, err := gateway.New(cfg.Gateway, gateway.Deps{
		Clock:   cfg.Clock,
		Tokens:  tokens,
		Policy:  sys.Policy,
		Router:  sys.Router,
		Client:  sys.Client,
		Batches: sys.Batches,
		Store:   sys.Store,
		Metrics: sys.Metrics,
	})
	if err != nil {
		return nil, err
	}
	sys.Gateway = gw
	return sys, nil
}

// countRoutes adds a deployment's clusters to its model's routes and rejects
// a (model, cluster) pair listed twice — the ladder would carry a duplicate
// row, and a failover walk could retry the endpoint it just failed on — or a
// model on more clusters than one failover walk can track.
func countRoutes(routes map[string][]string, model string, clusters []string) error {
	for _, c := range clusters {
		if slices.Contains(routes[model], c) {
			return fmt.Errorf("core: model %s is deployed on cluster %s twice", model, c)
		}
		routes[model] = append(routes[model], c)
	}
	if n := len(routes[model]); n > federation.MaxEndpoints {
		return fmt.Errorf("core: model %s is deployed on %d clusters, more than the %d a failover walk tracks", model, n, federation.MaxEndpoints)
	}
	return nil
}

// ScopeInference is the base scope the gateway requires.
const ScopeInference = "first:inference"

// RegisterUser adds an identity (provider "anl") and returns its subject.
func (s *System) RegisterUser(sub, username string) error {
	s.Store.EnsureUser(sub, username, s.Clock.Now())
	return s.Auth.RegisterUser(auth.Identity{Sub: sub, Username: username, Provider: "anl", MFAPassed: true})
}

// Login issues a token grant with the inference scope (§4.6 helper flow).
func (s *System) Login(sub string) (auth.Grant, error) {
	return s.Auth.Login(sub, ScopeInference)
}

// Close shuts the installation down.
func (s *System) Close() {
	for _, ep := range s.Endpoints {
		ep.Close()
	}
	s.Hub.Close()
	for _, sched := range s.Schedulers {
		sched.Close()
	}
}

// DefaultTestbed mirrors the paper's deployment: Sophia (24×8 A100) hosting
// Llama-70B, Llama-8B, and NV-Embed-v2, federated with Polaris hosting
// Llama-8B as the second target (§4.5). The clock defaults to 1000× so
// cold starts take milliseconds of wall time.
func DefaultTestbed(clk clock.Clock) (*System, error) {
	return NewSystem(DefaultTestbedConfig(clk))
}

// DefaultTestbedConfig returns the paper-default installation declaration,
// for callers that tweak knobs (gateway shards, rate limits) before building.
func DefaultTestbedConfig(clk clock.Clock) Config {
	return Config{
		Clock: clk,
		Clusters: []ClusterSpec{
			{Name: "sophia", Nodes: 24, GPUsPerNode: 8},
			{Name: "polaris", Nodes: 40, GPUsPerNode: 4},
		},
		Deployments: []DeploymentSpec{
			{
				Model:    perfmodel.Llama70B,
				Clusters: []string{"sophia"},
				Config:   fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 4},
			},
			{
				Model:    perfmodel.Llama8B,
				Clusters: []string{"sophia", "polaris"},
				Config:   fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 2},
			},
			{
				Model:    perfmodel.NVEmbed,
				Clusters: []string{"sophia"},
				Config:   fabric.DeploymentConfig{MinInstances: 1, MaxInstances: 1},
			},
		},
		Gateway: gateway.Config{UserRatePerSec: 100},
	}
}
