package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"github.com/argonne-first/first/internal/auth"
	"github.com/argonne-first/first/internal/fabric"
	"github.com/argonne-first/first/internal/openaiapi"
	"github.com/argonne-first/first/internal/store"
)

// Tool execution implements the paper's §7 future-work direction: "enable
// direct job submission for users, allowing AI Models to execute custom
// codes as tool calls and run traditional HPC simulations through the same
// API interface". A tool is an administrator-pre-registered fabric function
// (the §3.2.2 security model: only pre-registered functions ever execute),
// exposed at POST /v1/tools/{name} and gated by a Globus group so
// facilities control who may launch custom codes.

// ToolRequest is POST /v1/tools/{name}.
type ToolRequest struct {
	// Endpoint optionally pins a specific endpoint; empty routes to the
	// first endpoint exposing the tool.
	Endpoint string `json:"endpoint,omitempty"`
	// Payload is passed verbatim, as []byte, to the registered function.
	Payload json.RawMessage `json:"payload"`
}

// ToolResponse wraps a tool result.
type ToolResponse struct {
	Tool     string          `json:"tool"`
	Endpoint string          `json:"endpoint"`
	Result   json.RawMessage `json:"result"`
}

// ToolRoute describes one registered tool exposure.
type ToolRoute struct {
	Name     string
	Endpoint *fabric.Endpoint
	// Group restricts execution to members (empty = any authenticated
	// user with the base scope).
	Group string
}

// RegisterTool exposes a pre-registered endpoint function through the
// gateway. The function must already exist on the endpoint.
func (s *Server) RegisterTool(route ToolRoute) {
	s.toolsMu.Lock()
	defer s.toolsMu.Unlock()
	if s.tools == nil {
		s.tools = make(map[string][]ToolRoute)
	}
	s.tools[route.Name] = append(s.tools[route.Name], route)
}

func (s *Server) toolRoutes(name string) []ToolRoute {
	s.toolsMu.Lock()
	defer s.toolsMu.Unlock()
	return append([]ToolRoute(nil), s.tools[name]...)
}

// handleTool serves POST /v1/tools/{name}.
func (s *Server) handleTool(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	name := r.PathValue("name")
	routes := s.toolRoutes(name)
	if len(routes) == 0 {
		s.writeError(w, http.StatusNotFound, "invalid_request_error", "unknown tool: "+name)
		return
	}
	bd, ok := s.readBody(w, r, 0)
	if !ok {
		return
	}
	req, err := decodeToolRequest(bd.b)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
		return
	}
	var route *ToolRoute
	for i := range routes {
		if req.Endpoint == "" || routes[i].Endpoint.ID() == req.Endpoint {
			route = &routes[i]
			break
		}
	}
	if route == nil {
		s.writeError(w, http.StatusNotFound, "invalid_request_error", "tool not available on endpoint "+req.Endpoint)
		return
	}
	if route.Group != "" {
		member := false
		for _, g := range who.Groups {
			if g == route.Group {
				member = true
				break
			}
		}
		if !member {
			s.writeError(w, http.StatusForbidden, "permission_error", "tool requires group "+route.Group)
			return
		}
	}
	s.ins.toolCalls.Inc()
	// A tool takes and returns bytes: its payload is the caller's JSON,
	// verbatim, and what it returns is answered as JSON or quoted.
	out, err := s.client.Run(r.Context(), route.Endpoint.ID(), name, []byte(req.Payload))
	result, isBytes := out.([]byte)
	if err == nil && !isBytes && out != nil {
		err = fmt.Errorf("%w: tool %s answered %T, not bytes", fabric.ErrPayloadType, name, out)
	}
	s.st.LogRequest(store.RequestLog{
		User:      who.Sub,
		Model:     "tool:" + name,
		Endpoint:  route.Endpoint.ID(),
		Cluster:   route.Endpoint.ClusterName(),
		Kind:      store.RequestKind("tool"),
		Status:    statusOf(err),
		CreatedAt: s.clk.Now(),
	})
	if err != nil {
		s.writeError(w, http.StatusBadGateway, "api_error", err.Error())
		return
	}
	if !json.Valid(result) {
		quoted, _ := json.Marshal(string(result))
		result = quoted
	}
	s.writeJSON(w, http.StatusOK, ToolResponse{Tool: name, Endpoint: route.Endpoint.ID(), Result: result})
}

// decodeToolRequest reads a POST /v1/tools/{name} body
// (FuzzDecodeToolRequest). An empty body is a call without a payload on the
// first endpoint exposing the tool.
func decodeToolRequest(body []byte) (ToolRequest, error) {
	var req ToolRequest
	if len(body) > 0 {
		if err := openaiapi.Unmarshal(body, &req); err != nil {
			return req, errors.New("malformed JSON: " + err.Error())
		}
	}
	return req, nil
}

// handleListTools serves GET /v1/tools.
func (s *Server) handleListTools(w http.ResponseWriter, r *http.Request, who auth.TokenInfo) {
	s.toolsMu.Lock()
	out := struct {
		Object string   `json:"object"`
		Data   []string `json:"data"`
	}{Object: "list"}
	for name := range s.tools {
		out.Data = append(out.Data, name)
	}
	s.toolsMu.Unlock()
	sort.Strings(out.Data)
	s.writeJSON(w, http.StatusOK, out)
}

func statusOf(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
