package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func frame(payloads ...string) string {
	var b strings.Builder
	for _, p := range payloads {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], uint64(len(p)))
		b.Write(hdr[:])
		b.WriteString(p)
	}
	return b.String()
}

// fakeServer answers the routes the checks below need, counting the
// connections it accepts.
func fakeServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/objects/a", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"17"`)
		w.Header().Set("X-Request-ID", "rid-1")
		fmt.Fprint(w, `{"id":1,"name":"a","class":"media object (non-derived)"}`)
	})
	mux.HandleFunc("/v1/objects/a/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", "X-Stream-Error")
		body := frame("abc", "defgh")
		w.Write([]byte(body[:9]))
		w.(http.Flusher).Flush() // force chunked encoding
		w.Write([]byte(body[9:]))
		if r.URL.Query().Get("truncate") != "" {
			w.Header().Set("X-Stream-Error", "element 2: gone")
		}
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("as_of") == "1" {
			w.WriteHeader(http.StatusGone)
			fmt.Fprint(w, `{"error":{"code":"version_gone","message":"x"}}`)
			return
		}
		fmt.Fprintf(w, `{"objects":[{"id":1,"name":"a","attrs":{"tag":"t01"}},{"id":2,"name":"b"}],"total":2,"epoch":%s}`,
			map[bool]string{true: r.URL.Query().Get("epoch"), false: "9"}[r.URL.Query().Get("epoch") != ""])
	})
	mux.HandleFunc("/v1/objects:batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") != "application/json" || r.ContentLength <= 0 {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"ids":[5,6],"objects":[{"name":"x1","class":"derived"},{"name":"x2","class":"derived"}]}`)
	})
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

func TestClientChecksReplies(t *testing.T) {
	srv, conns := fakeServer(t)
	c := newClient(srv.URL, true)
	defer c.close()
	c.t0 = time.Now()
	cases := []struct {
		name string
		o    op
		ok   bool
	}{
		{"object", op{Kind: opObject, Method: "GET", Path: "/v1/objects/a", Status: 200, Name: "a"}, true},
		{"object wrong name", op{Kind: opObject, Method: "GET", Path: "/v1/objects/a", Status: 200, Name: "b"}, false},
		{"object wrong status", op{Kind: opObject, Method: "GET", Path: "/v1/objects/missing", Status: 200, Name: "missing"}, false},
		{"stream", op{Kind: opStream, Method: "GET", Path: "/v1/objects/a/stream", Status: 200, Elems: 2, Bytes: 8}, true},
		{"stream short count", op{Kind: opStream, Method: "GET", Path: "/v1/objects/a/stream", Status: 200, Elems: 3, Bytes: 8}, false},
		{"stream wrong bytes", op{Kind: opStream, Method: "GET", Path: "/v1/objects/a/stream", Status: 200, Elems: 2, Bytes: 9}, false},
		{"stream truncated by trailer", op{Kind: opStream, Method: "GET", Path: "/v1/objects/a/stream?truncate=1", Status: 200, Elems: 2, Bytes: 8}, false},
		{"query rows", op{Kind: opQuerySel, Method: "GET", Path: "/v1/query?attr.reel=r1&limit=50", Status: 200, Rows: 2}, true},
		{"query wrong rows", op{Kind: opQuerySel, Method: "GET", Path: "/v1/query?attr.reel=r1&limit=50", Status: 200, Rows: 3}, false},
		{"page total floor", op{Kind: opQueryPage, Method: "GET", Path: "/v1/query?kind=video", Status: 200, Rows: 2, Total: 3}, false},
		{"below floor wants 410", op{Kind: opAsOfQuery, Method: "GET", Path: "/v1/query?as_of=1", Status: 410}, true},
		{"410 where 200 was due", op{Kind: opAsOfQuery, Method: "GET", Path: "/v1/query?as_of=1", Status: 200, Rows: 2}, false},
		{"200 where 410 was due", op{Kind: opAsOfQuery, Method: "GET", Path: "/v1/query?as_of=5", Status: 410}, false},
		{"batch", op{Kind: opBatch, Method: "POST", Path: "/v1/objects:batch", Body: `{"items":[]}`, Status: 201, Rows: 2, Writes: []string{"x1", "x2"}}, true},
		{"batch wrong names", op{Kind: opBatch, Method: "POST", Path: "/v1/objects:batch", Body: `{"items":[]}`, Status: 201, Rows: 2, Writes: []string{"x1", "x3"}}, false},
	}
	for _, tc := range cases {
		res := c.do(&tc.o)
		if (res.err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, res.err, tc.ok)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("client opened %d connections, want one kept alive", n)
	}
	// One span tree per request, children tiling the parent.
	if len(c.spans) != 5*len(cases) {
		t.Fatalf("%d spans for %d requests", len(c.spans), len(cases))
	}
	if c.spans[0].Request != "rid-1" || c.spans[0].Name != "request" {
		t.Errorf("root span %+v", c.spans[0])
	}
	for i := 0; i < len(c.spans); i += 5 {
		root, kids := c.spans[i], c.spans[i+1:i+5]
		if kids[0].StartNs != root.StartNs || kids[3].EndNs != root.EndNs {
			t.Errorf("children do not tile request %d", i/5)
		}
		for k := 1; k < 4; k++ {
			if kids[k].StartNs != kids[k-1].EndNs {
				t.Errorf("gap between %s and %s", kids[k-1].Name, kids[k].Name)
			}
		}
	}
}

// A page read pins the newest epoch the client has seen in an ETag.
func TestPageReadPinsEpoch(t *testing.T) {
	srv, _ := fakeServer(t)
	c := newClient(srv.URL, false)
	defer c.close()
	page := op{Kind: opQueryPage, Method: "GET", Path: "/v1/query?kind=video", Status: 200, Rows: 2, Total: 2}
	if res := c.do(&page); res.err != nil {
		t.Fatal(res.err)
	}
	if c.epoch != "" {
		t.Fatalf("epoch %q before any ETag was seen", c.epoch)
	}
	if res := c.do(&op{Kind: opObject, Method: "GET", Path: "/v1/objects/a", Status: 200, Name: "a"}); res.err != nil {
		t.Fatal(res.err)
	}
	if c.epoch != "17" {
		t.Fatalf("epoch %q, want 17", c.epoch)
	}
	if res := c.do(&page); res.err != nil {
		t.Fatal(res.err)
	}
	if !strings.Contains(string(c.buf), `"epoch":17`) {
		t.Errorf("page read was not pinned: %s", c.buf)
	}
}

func TestListShape(t *testing.T) {
	rows, total, err := listShape([]byte(`{"objects":[{"id":1,"name":"a"},{"id":2,"name":"b"}],"total":42,"epoch":3,"next_offset":2}`))
	if err != nil || rows != 2 || total != 42 {
		t.Errorf("rows %d total %d err %v", rows, total, err)
	}
	for _, bad := range []string{`{"objects":[{"name":"a"}],"total":1`, `[]`, `{"objects":[]}`} {
		if _, _, err := listShape([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestFreePort(t *testing.T) {
	port, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		t.Fatalf("port %d not free: %v", port, err)
	}
	l.Close()
}

// A server that dies before it is ready is reported and reaped; one
// that is alive is gone once kill returns.
func TestChildProcessCleanup(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "dies")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := startServer(script, dir, filepath.Join(dir, "log"), nil)
	if err == nil || !strings.Contains(err.Error(), "exited before") {
		t.Fatalf("err = %v", err)
	}

	logf, err := os.Create(filepath.Join(dir, "log2"))
	if err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: exec.Command("sleep", "60"), log: logf, done: make(chan struct{})}
	if err := s.cmd.Start(); err != nil {
		t.Skip("no sleep binary:", err)
	}
	go func() { s.cmd.Wait(); close(s.done) }()
	finished := make(chan struct{})
	go func() { s.kill(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("kill did not return")
	}
	if s.cmd.ProcessState == nil {
		t.Error("process not reaped")
	}
}
