package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPNamespaceCRUD(t *testing.T) {
	m := NewMulti("")
	defer m.Close()
	ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{}))
	defer ts.Close()

	// Nothing exists yet: the legacy routes 404 (no default namespace),
	// as do namespace-scoped routes for unknown names.
	for _, path := range []string{"/v1/query?algo=greedy", "/v1/stats", "/v1/ns/nope/stats", "/v1/ns/nope"} {
		if resp, _ := doJSON(t, "GET", ts.URL+path, ""); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on empty server: got %d want 404", path, resp.StatusCode)
		}
	}

	// Create two namespaces, one of them the default.
	for _, body := range []string{
		`{"name":"default","num_sets":30,"k":3,"eps":0.4,"seed":7,"num_elems":2000,"edge_budget":1500,"shards":3}`,
		`{"name":"tenant-b","num_sets":45,"k":4,"eps":0.4,"seed":11,"num_elems":3000,"edge_budget":2250,"shards":2}`,
	} {
		resp, out := doJSON(t, "POST", ts.URL+"/v1/ns", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/ns: got %d: %s", resp.StatusCode, out)
		}
	}
	// Duplicate name: conflict. Invalid name / bad config: bad request.
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/ns", `{"name":"tenant-b","num_sets":5,"k":1}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: got %d want 409", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/ns", `{"name":"bad/name","num_sets":5,"k":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid name: got %d want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/ns", `{"name":"nok","num_sets":5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing k: got %d want 400", resp.StatusCode)
	}
	// A removed engine mode: bad request, and the body names the removal.
	if resp, out := doJSON(t, "POST", ts.URL+"/v1/ns", `{"name":"old","num_sets":5,"k":1,"engine":"sieve"}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(out), ErrModeRemoved.Error()) {
		t.Fatalf("removed engine: got %d %s, want 400 naming %q", resp.StatusCode, out, ErrModeRemoved)
	}

	// List reflects both, sorted, with the default flagged.
	resp, out := doJSON(t, "GET", ts.URL+"/v1/ns", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/ns: %d", resp.StatusCode)
	}
	var list listNamespacesResponse
	if err := json.Unmarshal(out, &list); err != nil {
		t.Fatal(err)
	}
	if list.Default != DefaultNamespace || len(list.Namespaces) != 2 ||
		list.Namespaces[0].Name != "default" || !list.Namespaces[0].Default ||
		list.Namespaces[1].Name != "tenant-b" || list.Namespaces[1].Default {
		t.Fatalf("GET /v1/ns = %+v", list)
	}

	// Single-entry GET.
	resp, out = doJSON(t, "GET", ts.URL+"/v1/ns/tenant-b", "")
	var info NamespaceInfo
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || info.NumSets != 45 || info.K != 4 || info.Shards != 2 {
		t.Fatalf("GET /v1/ns/tenant-b: %d %+v", resp.StatusCode, info)
	}

	// Delete, then the namespace and its routes are gone.
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/ns/tenant-b", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: got %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/ns/tenant-b", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: got %d want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/ns/tenant-b/stats", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete: got %d want 404", resp.StatusCode)
	}

	// Method discipline on the new routes (405 + Allow, like the legacy ones).
	for _, c := range []struct{ method, path, allow string }{
		{"PUT", "/v1/ns", "GET, POST"},
		{"POST", "/v1/ns/default", "GET, DELETE"},
		{"GET", "/v1/ns/default/edges", "POST, DELETE"},
		{"DELETE", "/v1/ns/default/query", "GET"},
		{"POST", "/v1/ns/default/stats", "GET"},
		{"DELETE", "/v1/ns/default/snapshot", "GET, POST"},
	} {
		resp, _ := doJSON(t, c.method, ts.URL+c.path, "")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: got %d want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow = %q want %q", c.method, c.path, got, c.allow)
		}
	}
}

// TestHTTPLegacyRoutesAliasDefaultNamespace pins the compatibility
// contract: the unprefixed PR 1-era routes and the /v1/ns/default/…
// routes address the same engine.
func TestHTTPLegacyRoutesAliasDefaultNamespace(t *testing.T) {
	inst := workload.PlantedKCover(30, 2000, 3, 0.9, 25, 9)
	m := NewMulti("")
	defer m.Close()
	if _, err := m.Create(DefaultNamespace, testConfig(30, 2000, 3, 7, 3)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{}))
	defer ts.Close()

	edges := stream.Drain(stream.Shuffled(inst.G, 1))
	pairs := make([][2]uint32, len(edges))
	for i, ed := range edges {
		pairs[i] = [2]uint32{ed.Set, ed.Elem}
	}
	half := len(pairs) / 2
	for _, route := range []struct {
		path string
		part [][2]uint32
	}{
		{"/v1/edges", pairs[:half]},            // legacy route
		{"/v1/ns/default/edges", pairs[half:]}, // scoped route, same tenant
	} {
		body, _ := json.Marshal(ingestRequest{Edges: route.part})
		resp, err := http.Post(ts.URL+route.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", route.path, resp.Status)
		}
	}

	// Both stats views see the union of both ingests.
	for _, path := range []string{"/v1/stats", "/v1/ns/default/stats"} {
		resp, out := doJSON(t, "GET", ts.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var st Stats
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatal(err)
		}
		if st.IngestedEdges != int64(len(pairs)) {
			t.Fatalf("GET %s: ingested %d want %d", path, st.IngestedEdges, len(pairs))
		}
	}

	// And both query views return the identical answer.
	var answers []QueryResult
	for _, path := range []string{"/v1/query?algo=kcover&k=3&refresh=1", "/v1/ns/default/query?algo=kcover&k=3"} {
		resp, out := doJSON(t, "GET", ts.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, out)
		}
		var qr QueryResult
		if err := json.Unmarshal(out, &qr); err != nil {
			t.Fatal(err)
		}
		answers = append(answers, qr)
	}
	if len(answers[0].Sets) == 0 {
		t.Fatal("empty kcover answer")
	}
	a, b := answers[0], answers[1]
	if a.EstimatedCoverage != b.EstimatedCoverage || len(a.Sets) != len(b.Sets) {
		t.Fatalf("legacy answer %+v != scoped answer %+v", a, b)
	}
	for i := range a.Sets {
		if a.Sets[i] != b.Sets[i] {
			t.Fatalf("legacy answer %+v != scoped answer %+v", a, b)
		}
	}
}

// TestHTTPMultiSnapshotPersistsAllNamespaces pins that POST …/snapshot
// on a multi handler writes one v2 container holding every namespace.
func TestHTTPMultiSnapshotPersistsAllNamespaces(t *testing.T) {
	instA := workload.PlantedKCover(30, 2000, 3, 0.9, 25, 9)
	m := NewMulti("")
	defer m.Close()
	a, err := m.Create(DefaultNamespace, testConfig(30, 2000, 3, 7, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("tenant-b", testConfig(45, 3000, 4, 11, 2)); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, a, instA.G, 256, 5)

	snapPath := filepath.Join(t.TempDir(), "hub.mcov")
	ts := httptest.NewServer(NewMultiHandler(m, HTTPOptions{SnapshotPath: snapPath}))
	defer ts.Close()

	// Snapshot through the namespace-scoped route of one tenant.
	resp, out := doJSON(t, "POST", ts.URL+"/v1/ns/default/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST snapshot: %d: %s", resp.StatusCode, out)
	}
	var sr snapshotResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Persisted != snapPath || sr.IngestedEdges != a.IngestedEdges() {
		t.Fatalf("snapshot response %+v", sr)
	}

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored := NewMulti("")
	defer restored.Close()
	n, err := restored.RestoreAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("persisted container holds %d namespaces, want 2", n)
	}
	re, _ := restored.Get(DefaultNamespace)
	if re.IngestedEdges() != a.IngestedEdges() {
		t.Fatalf("restored ingested %d want %d", re.IngestedEdges(), a.IngestedEdges())
	}
}
