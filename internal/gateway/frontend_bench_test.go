package gateway

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/clock"
)

// BenchmarkGatewayFrontend measures the admission hot path — limiter check
// plus response-cache hit — under parallel load. Run with -cpu 1,4,8: the
// sharded front-end scales with cores while the single-lock arm (shards=1,
// today's historical behaviour) stays flat or degrades as every core
// serializes on one mutex.
func BenchmarkGatewayFrontend(b *testing.B) {
	// Fixed shard counts (not GOMAXPROCS-derived) so the sub-benchmark set
	// is identical whatever -cpu list the run uses.
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := Config{
				CacheTTL:       time.Hour,
				UserRatePerSec: 1e12, // refill outruns any benchmark loop
				Shards:         shards,
			}
			cfg.applyDefaults()
			cfg.Shards = shards // pin exactly, applyDefaults only rounds up
			fe := newFrontend(cfg, clock.NewReal())

			const nUsers = 1024
			subs := make([]string, nUsers)
			keys := make([]respKey, nUsers)
			resp := []byte(`{"object":"chat.completion","cached":true}`)
			for i := range subs {
				subs[i] = "user-" + strconv.Itoa(i)
				keys[i] = keyFor(subs[i], []byte("the shared prompt"))
				fe.cachePut(keys[i], "m", resp)
			}

			var lane atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks the user set from its own offset so
				// goroutines collide on shards, not on one user entry.
				i := int(lane.Add(1)) * 127 % nUsers
				for pb.Next() {
					i = (i + 1) % nUsers
					if !fe.allowUser(subs[i]) {
						b.Error("limiter rejected under infinite refill")
						return
					}
					if _, _, ok := fe.cacheGet(keys[i]); !ok {
						b.Error("cache miss on warm key")
						return
					}
				}
			})
		})
	}
}
