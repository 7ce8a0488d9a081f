package obs

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestShutdownDrainsInFlightAndDropsSlowHeaders pins the two halves of a
// graceful stop: a request already in its handler when Shutdown starts
// completes with 200, and a connection that never finishes its request
// line cannot hold the drain past its bound — it is closed when the wait
// expires.
func TestShutdownDrainsInFlightAndDropsSlowHeaders(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var first sync.Once
	srv, err := ServeHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		held := false
		first.Do(func() { held = true })
		if !held {
			return // the probe below
		}
		close(entered)
		<-release
		_, _ = io.WriteString(w, "done\n")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if srv.srv.ReadHeaderTimeout <= 0 {
		t.Error("server has no ReadHeaderTimeout: a slow-header client holds its connection forever")
	}
	if srv.srv.ReadTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Error("server has no ReadTimeout or IdleTimeout: a slow-body or silent keep-alive client holds its connection forever")
	}
	if srv.srv.WriteTimeout < 45*time.Second {
		t.Errorf("WriteTimeout %v would cut a default 30 s /debug/pprof/profile short", srv.srv.WriteTimeout)
	}

	type reply struct {
		code int
		body string
		err  error
	}
	inFlight := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/")
		if err != nil {
			inFlight <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		inFlight <- reply{code: resp.StatusCode, body: string(body), err: err}
	}()
	<-entered

	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Connections are accepted in order, so once a later one has been
	// answered the slow one is the server's to track: without this a loaded
	// machine can close the listener before the slow connection is accepted,
	// and Shutdown has nothing to wait for.
	probe, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	probe.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// The listener closes first; only then is the handler let go, so the
	// request is provably in flight while the shutdown is under way.
	for {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
	close(release)
	got := <-inFlight
	if got.err != nil || got.code != http.StatusOK || got.body != "done\n" {
		t.Errorf("in-flight request: code %d body %q err %v, want 200 \"done\\n\"", got.code, got.body, got.err)
	}

	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want the expired wait (the slow-header connection never goes idle)", err)
	}
	_ = slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := slow.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Errorf("slow-header connection read = %v, want it closed by the server", err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
