package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that never finishes its request line must not hold a
// connection forever: the server closes it once readHeaderTimeout
// passes, while a complete request on the same listener is answered.
func TestStalledHeaderConnectionIsClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out readHeaderTimeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("complete request answered %q", body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /hea"); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil once the server hangs up (net/http may first
	// write an error status for the torn request line); the client-side
	// deadline only bounds the test if it never does.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %s (read %q): %v", time.Since(start).Round(time.Millisecond), reply, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout {
		t.Fatalf("connection closed after %s, before readHeaderTimeout %s", waited, readHeaderTimeout)
	}
}
