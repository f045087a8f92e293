package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderClientIsDisconnected: a client that opens a connection and
// never finishes its request headers is cut off by the server instead of
// holding the connection open, while the body of a request stays unbounded
// in time (no ReadTimeout).
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("server timeouts: header %v idle %v, want the constants %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 {
		t.Fatalf("ReadTimeout = %v: it would cut a large /usage/batch body", hs.ReadTimeout)
	}
	// Same server, with the header timeout shortened so the test does not
	// wait out the production value.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Never-Ends: ")); err != nil {
		t.Fatal(err)
	}
	// The server gives up on the headers and closes: the read ends well
	// before the guard deadline, with EOF or an error status, never a hang.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	started := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open %v after stalling the headers: %v", time.Since(started), err)
	}
}
