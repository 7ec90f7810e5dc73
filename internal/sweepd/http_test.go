package sweepd

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"guvm/internal/faultinject"
	"guvm/internal/sweepd/store"
)

func newHTTPService(t *testing.T, cfg Config, inj *faultinject.ServiceInjector) (*Service, *httptest.Server) {
	t.Helper()
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(st, nil, inj, cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return s, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/sweep/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// TestHTTPSubmitStatusAndStream drives the whole client surface: submit
// (202), poll status, stream every NDJSON row, list jobs, healthz.
func TestHTTPSubmitStatusAndStream(t *testing.T) {
	s, srv := newHTTPService(t, testConfig(), nil)
	resp, body := postJob(t, srv, `{"workload":"stream","mb":1,"caps_mb":[2,32]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Points != 2 {
		t.Fatalf("submit view = %+v", v)
	}

	// The stream stays open until the job is terminal and carries every
	// row exactly once, in grid order.
	res, err := http.Get(srv.URL + "/sweep/jobs/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var rows []PointRow
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		var row PointRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("streamed %d rows, want 2", len(rows))
	}
	if rows[0].Point.CapMB != 2 || rows[1].Point.CapMB != 32 {
		t.Fatalf("rows out of grid order: %+v", rows)
	}

	res2, err := http.Get(srv.URL + "/sweep/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fin JobView
	json.NewDecoder(res2.Body).Decode(&fin)
	res2.Body.Close()
	if fin.State != JobDone || fin.Completed != 2 {
		t.Fatalf("final status = %+v", fin)
	}

	res3, err := http.Get(srv.URL + "/sweep/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobView
	json.NewDecoder(res3.Body).Decode(&list)
	res3.Body.Close()
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("job list = %+v", list)
	}

	res4, err := http.Get(srv.URL + "/sweep/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res4.Body.Close()
	if res4.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", res4.StatusCode)
	}
	_ = s
}

// TestHTTPErrorMapping checks the status-code ladder: 400 for bad specs,
// 404 for unknown jobs, 429 + Retry-After under back-pressure, 503 (and
// failing healthz) once draining.
func TestHTTPErrorMapping(t *testing.T) {
	inj, _ := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		SlowPointRate:  1.0,
		SlowPointDelay: time.Minute,
	})
	cfg := testConfig()
	cfg.QueueCap = 1
	s, srv := newHTTPService(t, cfg, inj)

	if resp, body := postJob(t, srv, `{"workload":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload = %d %s", resp.StatusCode, body)
	}
	if resp, body := postJob(t, srv, `{"workload":"sgemm","n":1000}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gemm n off the tile = %d %s", resp.StatusCode, body)
	}
	if resp, body := postJob(t, srv, `{"workload":"stream","bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d %s", resp.StatusCode, body)
	}
	if resp, _ := http.Get(srv.URL + "/sweep/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Stall the runner, fill the one queue slot, then overflow it.
	if resp, body := postJob(t, srv, `{"workload":"stream","mb":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 = %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Health().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never started job 1")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := postJob(t, srv, `{"workload":"stream","mb":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 = %d %s", resp.StatusCode, body)
	}
	resp, body := postJob(t, srv, `{"workload":"stream","mb":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body = %s", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, body2 := postJob(t, srv, `{"workload":"stream","mb":1}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d %s", resp2.StatusCode, body2)
	}
	resp3, err := http.Get(srv.URL + "/sweep/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", resp3.StatusCode)
	}
}

// TestHTTPStreamFollowsLiveJob opens the result stream while the job is
// still running and checks rows arrive incrementally, then the stream
// closes on the terminal state.
func TestHTTPStreamFollowsLiveJob(t *testing.T) {
	inj, _ := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		SlowPointRate:  1.0,
		SlowPointDelay: 50 * time.Millisecond,
	})
	s, srv := newHTTPService(t, testConfig(), inj)
	resp, body := postJob(t, srv, `{"workload":"stream","mb":1,"caps_mb":[2,32],"batches":[128,256]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var v JobView
	json.Unmarshal(body, &v)

	res, err := http.Get(srv.URL + "/sweep/jobs/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	n := 0
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		n++
	}
	if n != 4 {
		t.Fatalf("live stream delivered %d rows, want 4", n)
	}
	fin, err := s.Job(v.ID)
	if err != nil || fin.State != JobDone {
		t.Fatalf("job after stream = %+v, %v", fin, err)
	}
}
