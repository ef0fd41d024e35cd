package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/gateway"
)

// FileConfig is the on-disk installation description (the paper's
// "configuration registry", §4.5: endpoint listing order defines
// federation priority).
type FileConfig struct {
	Clusters []FileCluster    `json:"clusters"`
	Models   []FileDeployment `json:"models"`
	Gateway  FileGateway      `json:"gateway"`
}

// FileCluster declares a cluster.
type FileCluster struct {
	Name        string `json:"name"`
	Nodes       int    `json:"nodes"`
	GPUsPerNode int    `json:"gpus_per_node"`
	PrologueS   int    `json:"prologue_s,omitempty"`
	Backfill    bool   `json:"backfill,omitempty"`
}

// FileDeployment declares a model hosting, clusters in priority order.
type FileDeployment struct {
	Model           string   `json:"model"`
	Clusters        []string `json:"clusters"`
	MinInstances    int      `json:"min_instances,omitempty"`
	MaxInstances    int      `json:"max_instances,omitempty"`
	HotIdleTimeoutS int      `json:"hot_idle_timeout_s,omitempty"`
	ScaleUpDepth    int      `json:"scale_up_depth,omitempty"`
	RestrictToGroup string   `json:"restrict_to_group,omitempty"`
}

// FileGateway declares gateway tunables.
type FileGateway struct {
	InFlightLimit  int     `json:"in_flight_limit,omitempty"`
	UserRatePerSec float64 `json:"user_rate_per_sec,omitempty"`
	CacheTTLS      int     `json:"cache_ttl_s,omitempty"`
	SyncLegacy     bool    `json:"sync_legacy,omitempty"`
	// Shards splits the front-end's cache/limiter state N ways (0 =
	// GOMAXPROCS-derived, 1 = single lock).
	Shards int `json:"shards,omitempty"`
}

// LoadConfig reads a FileConfig from path.
func LoadConfig(path string) (FileConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return FileConfig{}, err
	}
	fc, err := parseConfig(raw)
	if err != nil {
		return FileConfig{}, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	if err := fc.Validate(); err != nil {
		return FileConfig{}, err
	}
	return fc, nil
}

// parseConfig decodes exactly one FileConfig object. Unknown keys are an
// error: a misspelt tunable would otherwise be dropped silently and the
// gateway would boot with the default.
func parseConfig(raw []byte) (FileConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var fc FileConfig
	if err := dec.Decode(&fc); err != nil {
		return FileConfig{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return FileConfig{}, fmt.Errorf("trailing data after the config object")
	}
	return fc, nil
}

// Validate checks the declaration for consistency before any resources are
// built.
func (fc FileConfig) Validate() error {
	if len(fc.Clusters) == 0 {
		return fmt.Errorf("core: config declares no clusters")
	}
	names := make(map[string]bool)
	for _, c := range fc.Clusters {
		if c.Name == "" || c.Nodes <= 0 || c.GPUsPerNode <= 0 {
			return fmt.Errorf("core: cluster %q needs name, nodes > 0, gpus_per_node > 0", c.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("core: duplicate cluster %q", c.Name)
		}
		if err := checkSeconds("cluster "+c.Name+" prologue_s", c.PrologueS); err != nil {
			return err
		}
		names[c.Name] = true
	}
	if len(fc.Models) == 0 {
		return fmt.Errorf("core: config declares no models")
	}
	routes := make(map[string][]string)
	for _, m := range fc.Models {
		if m.Model == "" {
			return fmt.Errorf("core: model entry without a name")
		}
		if len(m.Clusters) == 0 {
			return fmt.Errorf("core: model %s lists no clusters", m.Model)
		}
		if m.MinInstances < 0 || m.MaxInstances < 0 || m.ScaleUpDepth < 0 {
			return fmt.Errorf("core: model %s has a negative min_instances, max_instances or scale_up_depth", m.Model)
		}
		if err := checkSeconds("model "+m.Model+" hot_idle_timeout_s", m.HotIdleTimeoutS); err != nil {
			return err
		}
		for _, cl := range m.Clusters {
			if !names[cl] {
				return fmt.Errorf("core: model %s references unknown cluster %q", m.Model, cl)
			}
		}
		if err := countRoutes(routes, m.Model, m.Clusters); err != nil {
			return err
		}
	}
	if g := fc.Gateway; g.Shards < 0 || g.InFlightLimit < 0 || g.UserRatePerSec < 0 {
		return fmt.Errorf("core: gateway shards, in_flight_limit and user_rate_per_sec must not be negative")
	}
	return checkSeconds("gateway cache_ttl_s", fc.Gateway.CacheTTLS)
}

// maxSeconds is the most whole seconds a time.Duration holds.
const maxSeconds = math.MaxInt64 / int64(time.Second)

// checkSeconds rejects a seconds field that is negative or that would
// overflow time.Duration when ToSystemConfig converts it.
func checkSeconds(field string, secs int) error {
	if secs < 0 || int64(secs) > maxSeconds {
		return fmt.Errorf("core: %s = %d is outside [0, %d]", field, secs, maxSeconds)
	}
	return nil
}

// ToSystemConfig converts the file form into a buildable Config. The
// returned restricted map lists model→group policy restrictions to apply
// after NewSystem.
func (fc FileConfig) ToSystemConfig() (Config, map[string]string) {
	cfg := Config{
		Gateway: gateway.Config{
			InFlightLimit:  fc.Gateway.InFlightLimit,
			UserRatePerSec: fc.Gateway.UserRatePerSec,
			CacheTTL:       time.Duration(fc.Gateway.CacheTTLS) * time.Second,
			Shards:         fc.Gateway.Shards,
		},
	}
	if fc.Gateway.SyncLegacy {
		cfg.Gateway.WorkerModel = gateway.WorkerSyncLegacy
	}
	for _, c := range fc.Clusters {
		cfg.Clusters = append(cfg.Clusters, ClusterSpec{
			Name:        c.Name,
			Nodes:       c.Nodes,
			GPUsPerNode: c.GPUsPerNode,
			Prologue:    time.Duration(c.PrologueS) * time.Second,
			Backfill:    c.Backfill,
		})
	}
	restricted := make(map[string]string)
	for _, m := range fc.Models {
		cfg.Deployments = append(cfg.Deployments, DeploymentSpec{
			Model:    m.Model,
			Clusters: m.Clusters,
			Config: fabric.DeploymentConfig{
				MinInstances:   m.MinInstances,
				MaxInstances:   m.MaxInstances,
				HotIdleTimeout: time.Duration(m.HotIdleTimeoutS) * time.Second,
				ScaleUpDepth:   m.ScaleUpDepth,
			},
		})
		if m.RestrictToGroup != "" {
			restricted[m.Model] = m.RestrictToGroup
		}
	}
	return cfg, restricted
}

// NewSystemFromFile builds a running installation from a config file.
func NewSystemFromFile(path string, clk clock.Clock) (*System, error) {
	fc, err := LoadConfig(path)
	if err != nil {
		return nil, err
	}
	cfg, restricted := fc.ToSystemConfig()
	cfg.Clock = clk
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	for model, group := range restricted {
		sys.Policy.Restrict(model, group)
	}
	return sys, nil
}
