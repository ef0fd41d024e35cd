package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/client"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/perfmodel"
)

const sampleConfig = `{
  "clusters": [
    {"name": "sophia", "nodes": 4, "gpus_per_node": 8, "prologue_s": 10},
    {"name": "polaris", "nodes": 8, "gpus_per_node": 4, "backfill": true}
  ],
  "models": [
    {"model": "meta-llama/Meta-Llama-3.1-8B-Instruct",
     "clusters": ["sophia", "polaris"],
     "min_instances": 1, "max_instances": 2, "hot_idle_timeout_s": 7200},
    {"model": "meta-llama/Llama-3.3-70B-Instruct",
     "clusters": ["sophia"], "restrict_to_group": "big-model-users"}
  ],
  "gateway": {"in_flight_limit": 256, "user_rate_per_sec": 50, "cache_ttl_s": 60, "shards": 4}
}`

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "first.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigAndBuildSystem(t *testing.T) {
	path := writeConfig(t, sampleConfig)
	sys, err := NewSystemFromFile(path, clock.NewScaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	if len(sys.Clusters) != 2 || sys.Clusters["polaris"].NodeCount() != 8 {
		t.Errorf("clusters misbuilt")
	}
	if got := len(sys.Router.Endpoints(perfmodel.Llama8B)); got != 2 {
		t.Errorf("8B routes = %d, want 2 (federated)", got)
	}
	// The restricted model enforces its group end-to-end.
	sys.RegisterUser("u", "u@anl.gov")
	grant, _ := sys.Login("u")
	c := client.New("", grant.AccessToken, client.WithHandler(sys.Gateway))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err = c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:    perfmodel.Llama70B,
		Messages: []openaiapi.Message{{Role: "user", Content: "x"}},
	})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 403 {
		t.Errorf("restricted model err = %v, want 403", err)
	}
	// Unrestricted model works.
	if _, err := c.ChatCompletion(ctx, openaiapi.ChatCompletionRequest{
		Model:     perfmodel.Llama8B,
		Messages:  []openaiapi.Message{{Role: "user", Content: "x"}},
		MaxTokens: 4,
	}); err != nil {
		t.Errorf("open model failed: %v", err)
	}
}

// validConfigWith returns a minimal valid config with extra members spliced
// into its one model entry and its gateway object (either may be empty).
func validConfigWith(modelExtra, gatewayExtra string) string {
	if modelExtra != "" {
		modelExtra = ", " + modelExtra
	}
	return `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1}], "models":[{"model":"m","clusters":["a"]` +
		modelExtra + `}], "gateway":{` + gatewayExtra + `}}`
}

func TestConfigValidationErrors(t *testing.T) {
	if _, err := LoadConfig(writeConfig(t, validConfigWith(``, ``))); err != nil {
		t.Fatalf("base config of the splice rows rejected: %v", err)
	}
	cases := map[string]string{
		"no clusters":       `{"models":[{"model":"m","clusters":["x"]}]}`,
		"bad cluster":       `{"clusters":[{"name":"", "nodes":0, "gpus_per_node":0}], "models":[{"model":"m","clusters":["x"]}]}`,
		"dup cluster":       `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1},{"name":"a","nodes":1,"gpus_per_node":1}], "models":[{"model":"m","clusters":["a"]}]}`,
		"no models":         `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1}]}`,
		"unknown cluster":   `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1}], "models":[{"model":"m","clusters":["zzz"]}]}`,
		"nameless model":    `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1}], "models":[{"model":"","clusters":["a"]}]}`,
		"not json":          `{nope`,
		"trailing data":     validConfigWith(``, ``) + `{}`,
		"typo gateway key":  validConfigWith(``, `"in_flight_limt": 256`),
		"typo model key":    validConfigWith(`"max_instance": 2`, ``),
		"negative shards":   validConfigWith(``, `"shards": -1`),
		"negative limit":    validConfigWith(``, `"in_flight_limit": -1`),
		"negative ttl":      validConfigWith(``, `"cache_ttl_s": -60`),
		"negative min":      validConfigWith(`"min_instances": -1`, ``),
		"negative max":      validConfigWith(`"max_instances": -2`, ``),
		"negative depth":    validConfigWith(`"scale_up_depth": -1`, ``),
		"negative idle":     validConfigWith(`"hot_idle_timeout_s": -1`, ``),
		"negative rate":     validConfigWith(``, `"user_rate_per_sec": -0.5`),
		"negative prologue": `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1,"prologue_s":-1}], "models":[{"model":"m","clusters":["a"]}]}`,
		"idle overflow":     validConfigWith(`"hot_idle_timeout_s": 18446744074`, ``),
		"ttl overflow":      validConfigWith(``, `"cache_ttl_s": 9223372037`),
		"prologue overflow": `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1,"prologue_s":9223372037}], "models":[{"model":"m","clusters":["a"]}]}`,
		"too many clusters": wideConfig(federation.MaxEndpoints + 1),
		"route twice":       `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1}], "models":[{"model":"m","clusters":["a","a"]}]}`,
		"route in two rows": `{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1}], "models":[{"model":"m","clusters":["a"]},{"model":"m","clusters":["a"]}]}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeConfig(t, content)
			if _, err := LoadConfig(path); err == nil {
				t.Errorf("accepted invalid config: %s", content)
			}
		})
	}
	if _, err := LoadConfig("/no/such/file.json"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadConfig(writeConfig(t, wideConfig(federation.MaxEndpoints))); err != nil {
		t.Errorf("a model on exactly MaxEndpoints clusters rejected: %v", err)
	}
	fc, err := LoadConfig(writeConfig(t, validConfigWith(`"hot_idle_timeout_s": 9223372036`, `"cache_ttl_s": 9223372036`)))
	if err != nil {
		t.Fatalf("the longest durations a time.Duration holds rejected: %v", err)
	}
	cfg, _ := fc.ToSystemConfig()
	if want := 9223372036 * time.Second; cfg.Gateway.CacheTTL != want || cfg.Deployments[0].Config.HotIdleTimeout != want {
		t.Errorf("cache ttl %v, idle timeout %v, want %v", cfg.Gateway.CacheTTL, cfg.Deployments[0].Config.HotIdleTimeout, want)
	}
}

// wideConfig declares n one-GPU clusters and one model deployed on all of
// them.
func wideConfig(n int) string {
	clusters := make([]string, n)
	names := make([]string, n)
	for i := range clusters {
		clusters[i] = fmt.Sprintf(`{"name":"c%d","nodes":1,"gpus_per_node":1}`, i)
		names[i] = fmt.Sprintf(`"c%d"`, i)
	}
	return `{"clusters":[` + strings.Join(clusters, ",") + `], "models":[{"model":"m","clusters":[` + strings.Join(names, ",") + `]}]}`
}

func TestConfigGatewayTunables(t *testing.T) {
	path := writeConfig(t, sampleConfig)
	fc, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, restricted := fc.ToSystemConfig()
	if cfg.Gateway.InFlightLimit != 256 || cfg.Gateway.UserRatePerSec != 50 {
		t.Errorf("gateway tunables = %+v", cfg.Gateway)
	}
	if cfg.Gateway.CacheTTL != time.Minute {
		t.Errorf("cache ttl = %v", cfg.Gateway.CacheTTL)
	}
	if cfg.Gateway.Shards != 4 {
		t.Errorf("shards = %d, want 4", cfg.Gateway.Shards)
	}
	if restricted[perfmodel.Llama70B] != "big-model-users" {
		t.Errorf("restrictions = %v", restricted)
	}
	if cfg.Clusters[0].Prologue != 10*time.Second || !cfg.Clusters[1].Backfill {
		t.Errorf("cluster tunables = %+v", cfg.Clusters)
	}
}

// FuzzLoadConfig feeds arbitrary bytes through the config-file decoder:
// whatever parses and validates must convert to a system config without
// panicking, and must carry no negative tunable into it.
func FuzzLoadConfig(f *testing.F) {
	for _, s := range []string{
		sampleConfig, validConfigWith(``, ``), ``, `{}`, `null`, `[]`, `{nope`,
		validConfigWith(`"max_instance": 2`, `"in_flight_limt": 256`),
		validConfigWith(`"min_instances": -1, "hot_idle_timeout_s": -9223372036854775808`, `"shards": -1, "user_rate_per_sec": -1e308`),
		`{"clusters":[{"name":"a","nodes":9223372036854775807,"gpus_per_node":1,"prologue_s":-1}],"models":[{"model":"m","clusters":["a","a"]}]}`,
		wideConfig(federation.MaxEndpoints + 1),
		validConfigWith(`"hot_idle_timeout_s": 18446744074`, ``),
		validConfigWith(``, `"cache_ttl_s": 9223372037`),
		`{"clusters":[{"name":"a","nodes":1,"gpus_per_node":1},{"name":"b","nodes":1,"gpus_per_node":1}],"models":[{"model":"m","clusters":["a","b"]},{"model":"m","clusters":["b"]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, err := parseConfig(data)
		if err != nil || fc.Validate() != nil {
			return
		}
		cfg, _ := fc.ToSystemConfig()
		if g := cfg.Gateway; g.Shards < 0 || g.InFlightLimit < 0 || g.UserRatePerSec < 0 {
			t.Fatalf("validated config carries a negative gateway tunable: %+v", g)
		}
		// Every converted duration is non-negative and holds its seconds.
		converted := func(what string, d time.Duration, secs int) {
			if d < 0 || int64(d/time.Second) != int64(secs) {
				t.Fatalf("validated config converts %s = %d s to %v", what, secs, d)
			}
		}
		converted("cache_ttl_s", cfg.Gateway.CacheTTL, fc.Gateway.CacheTTLS)
		for i, c := range cfg.Clusters {
			converted("prologue_s", c.Prologue, fc.Clusters[i].PrologueS)
		}
		routes, perModel := make(map[[2]string]bool), make(map[string]int)
		for i, d := range cfg.Deployments {
			if d.Config.MinInstances < 0 || d.Config.MaxInstances < 0 || d.Config.ScaleUpDepth < 0 {
				t.Fatalf("validated config carries a negative instance count or depth: %+v", d)
			}
			converted("hot_idle_timeout_s", d.Config.HotIdleTimeout, fc.Models[i].HotIdleTimeoutS)
			for _, c := range d.Clusters {
				if routes[[2]string{d.Model, c}] {
					t.Fatalf("validated config deploys %s on %s twice", d.Model, c)
				}
				routes[[2]string{d.Model, c}] = true
			}
			if perModel[d.Model] += len(d.Clusters); perModel[d.Model] > federation.MaxEndpoints {
				t.Fatalf("validated config deploys %s on %d clusters, more than %d", d.Model, perModel[d.Model], federation.MaxEndpoints)
			}
		}
	})
}
