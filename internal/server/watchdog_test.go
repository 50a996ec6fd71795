package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestCloseAndShutdownStopWatchdog stops a server whose request watchdog
// is running with Close and Shutdown at once. Under -race the watchdog's
// stop signal must not be read while a stopper writes it; closing it twice
// must not panic; and both calls must return, which they cannot if the
// watchdog missed its stop signal.
func TestCloseAndShutdownStopWatchdog(t *testing.T) {
	srv, _ := testServer(t)
	srv.cfg.RequestTimeout = 4 * time.Millisecond
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	stopped := make(chan struct{})
	go func() {
		wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Close and Shutdown did not return: the watchdog never stopped")
	}
}
