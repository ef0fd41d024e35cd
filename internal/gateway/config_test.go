package gateway

import (
	"testing"
	"time"

	"github.com/argonne-first/first/internal/auth"
	"github.com/argonne-first/first/internal/clock"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/federation"
	"github.com/argonne-first/first/internal/store"
)

// TestSyncWorkerModelUsesSmallPool builds both worker models and reads the
// admission each one wired: the legacy pool of nine, the async window of 428.
func TestSyncWorkerModelUsesSmallPool(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	svc := auth.NewService(clk, auth.Config{})
	deps := Deps{
		Clock:  clk,
		Tokens: auth.NewTokenCache(svc, clk, "id", svc.RegisterConfidentialClient("id"), 0),
		Router: federation.NewRouter(),
		Client: fabric.NewClient(fabric.NewHub(clk, fabric.HubConfig{}, "id", "secret", nil), fabric.ClientConfig{}),
		Store:  store.New(0),
	}
	legacy, err := New(Config{WorkerModel: WorkerSyncLegacy}, deps)
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(legacy.syncSem); got != 9 {
		t.Errorf("sync workers = %d, want 9 (the paper's pre-Opt.3 pool)", got)
	}
	async, err := New(Config{}, deps)
	if err != nil {
		t.Fatal(err)
	}
	if async.inFlightLimit != 428 {
		t.Errorf("async window = %d, want 428 (Gunicorn cpu×2+1 × 4 threads)", async.inFlightLimit)
	}
}
