package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/argonne-first/first/internal/gateway"
)

func postTool(t *testing.T, sys *System, token, name, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/tools/"+name, strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	sys.Gateway.ServeHTTP(rec, req)
	return rec
}

func TestHPCSimulationTool(t *testing.T) {
	sys, c := newTestSystem(t)
	_ = c
	if err := sys.RegisterHPCSimulationTool("sophia", ""); err != nil {
		t.Fatal(err)
	}
	grant, _ := sys.Login("alice")

	body := `{"payload":{"name":"climate-run","grid_cells":100000000,"steps":2000,"gpus":4}}`
	rec := postTool(t, sys, grant.AccessToken, "hpc.simulate", body)
	if rec.Code != 200 {
		t.Fatalf("tool call = %d: %s", rec.Code, rec.Body.String())
	}
	var resp gateway.ToolResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var result SimulateResult
	if err := json.Unmarshal(resp.Result, &result); err != nil {
		t.Fatal(err)
	}
	if result.Name != "climate-run" || result.GPUs != 4 {
		t.Errorf("result = %+v", result)
	}
	// 1e8 cells × 2000 steps / (2e9 × 4 GPUs) = 25 s of modeled compute.
	if result.RuntimeS < 24.9 || result.RuntimeS > 25.1 {
		t.Errorf("runtime = %.1fs, want 25s", result.RuntimeS)
	}
	if result.JobID == 0 {
		t.Error("no scheduler job recorded")
	}
	// The simulation went through the real scheduler and released its nodes.
	if free := sys.Clusters["sophia"].Status().FreeGPUs; free < 4 {
		t.Errorf("allocation seems leaked: %d free GPUs", free)
	}
	// Logged as a tool request.
	if tot := sys.Store.Totals(); tot.ByKind["tool"] != 1 {
		t.Errorf("tool call not logged: %+v", tot.ByKind)
	}
}

func TestToolGroupGating(t *testing.T) {
	sys, _ := newTestSystem(t)
	if err := sys.RegisterHPCSimulationTool("sophia", "simulation-users"); err != nil {
		t.Fatal(err)
	}
	grant, _ := sys.Login("alice")
	body := `{"payload":{"name":"x","grid_cells":1000,"steps":10}}`
	if rec := postTool(t, sys, grant.AccessToken, "hpc.simulate", body); rec.Code != 403 {
		t.Errorf("non-member got %d, want 403", rec.Code)
	}
	sys.Auth.AddToGroup("simulation-users", "alice")
	grant, _ = sys.Login("alice")
	if rec := postTool(t, sys, grant.AccessToken, "hpc.simulate", body); rec.Code != 200 {
		t.Errorf("member got %d: %s", rec.Code, rec.Body.String())
	}
}

func TestToolValidation(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.RegisterHPCSimulationTool("sophia", "")
	grant, _ := sys.Login("alice")
	if rec := postTool(t, sys, grant.AccessToken, "no.such.tool", `{}`); rec.Code != 404 {
		t.Errorf("unknown tool = %d", rec.Code)
	}
	if rec := postTool(t, sys, grant.AccessToken, "hpc.simulate", `{"payload":{"grid_cells":-1,"steps":0}}`); rec.Code != 502 {
		t.Errorf("invalid payload = %d", rec.Code)
	}
	if rec := postTool(t, sys, grant.AccessToken, "hpc.simulate", `{broken`); rec.Code != 400 {
		t.Errorf("broken json = %d", rec.Code)
	}
	if err := sys.RegisterHPCSimulationTool("nowhere", ""); err == nil {
		t.Error("unknown cluster accepted")
	}
	if err := sys.ExposeTool("t", "nowhere", "", func(context.Context, any) (any, error) { return nil, nil }); err == nil {
		t.Error("ExposeTool accepted unknown cluster")
	}
}

func TestListTools(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.RegisterHPCSimulationTool("sophia", "")
	sys.ExposeTool("custom.echo", "polaris", "", func(_ context.Context, p any) (any, error) {
		return p, nil
	})
	grant, _ := sys.Login("alice")
	req := httptest.NewRequest(http.MethodGet, "/v1/tools", nil)
	req.Header.Set("Authorization", "Bearer "+grant.AccessToken)
	rec := httptest.NewRecorder()
	sys.Gateway.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("list = %d", rec.Code)
	}
	var out struct {
		Data []string `json:"data"`
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	if len(out.Data) != 2 || out.Data[0] != "custom.echo" || out.Data[1] != "hpc.simulate" {
		t.Errorf("tools = %v", out.Data)
	}
}

func TestCustomToolRawStringResult(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.ExposeTool("raw.echo", "sophia", "", func(_ context.Context, p any) (any, error) {
		return []byte("not json at all"), nil
	})
	grant, _ := sys.Login("alice")
	rec := postTool(t, sys, grant.AccessToken, "raw.echo", `{"payload":{}}`)
	if rec.Code != 200 {
		t.Fatalf("raw tool = %d", rec.Code)
	}
	var resp gateway.ToolResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("non-JSON tool output must be quoted: %v", err)
	}
	var s string
	if err := json.Unmarshal(resp.Result, &s); err != nil || s != "not json at all" {
		t.Errorf("result = %s", resp.Result)
	}
}

// TestToolTakesAndReturnsBytes: a tool is handed the call's JSON payload as
// []byte, verbatim, and the JSON it returns is the result; a tool that answers
// with anything but bytes fails the call with a 502 instead of panicking.
func TestToolTakesAndReturnsBytes(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.ExposeTool("bytes.echo", "sophia", "", func(_ context.Context, p any) (any, error) {
		raw, ok := p.([]byte)
		if !ok || string(raw) != `{"n": [1, 2]}` {
			t.Errorf("tool payload = %#v, want the call's JSON bytes verbatim", p)
		}
		return raw, nil
	})
	sys.ExposeTool("value.tool", "sophia", "", func(context.Context, any) (any, error) {
		return SimulateResult{Name: "not bytes"}, nil
	})
	grant, _ := sys.Login("alice")
	rec := postTool(t, sys, grant.AccessToken, "bytes.echo", `{"payload":{"n": [1, 2]}}`)
	var resp gateway.ToolResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil || string(resp.Result) != `{"n":[1,2]}` {
		t.Errorf("echo = %d %s", rec.Code, rec.Body.String())
	}
	if rec := postTool(t, sys, grant.AccessToken, "value.tool", `{"payload":{}}`); rec.Code != 502 || !strings.Contains(rec.Body.String(), "not bytes") {
		t.Errorf("tool answering a Go value = %d %s, want 502", rec.Code, rec.Body.String())
	}
}

func TestToolContextTimeout(t *testing.T) {
	sys, _ := newTestSystem(t)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	sys.ExposeTool("slow.tool", "sophia", "", func(ctx context.Context, _ any) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
		}
		return []byte(`{}`), nil
	})
	grant, _ := sys.Login("alice")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/tools/slow.tool", strings.NewReader(`{"payload":{}}`)).WithContext(ctx)
	req.Header.Set("Authorization", "Bearer "+grant.AccessToken)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		sys.Gateway.ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
		if rec.Code == 200 {
			t.Error("timed-out tool call returned 200")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("tool call did not respect context timeout")
	}
}
