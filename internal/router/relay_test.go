package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/client"
	"ifdk/pkg/volume"
)

// The relay hands each slice part to the client the moment the backend has
// written it. The fake backend writes slice 0 and then stalls before slice
// 1, like an epilogue parked after its first row group: an SDK client
// behind the router must still see slice 0 while the backend holds the
// rest, rather than one or two parts late.
func TestRelayForwardsEachPartOnTime(t *testing.T) {
	const id = "b0-j00000001"
	view := api.View{ID: id, State: api.StateRunning}
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]string{"node": "b0"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		pw := api.NewPartWriter(w, false)
		w.WriteHeader(http.StatusOK)
		slice := volume.ImageToBytes(volume.NewImage(4, 4))
		if pw.WriteSlice(0, 2, 0, slice, false) != nil {
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		if pw.WriteSlice(1, 2, 0, slice, false) != nil {
			return
		}
		done := view
		done.State = api.StateDone
		_ = pw.WriteEnd(done)
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()
	defer open() // before backend.Close: the stalled handler must return

	rt, err := New(Options{Backends: []Backend{{Name: "b0", URL: backend.URL}},
		HealthEvery: 25 * time.Millisecond, DeadAfter: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got0 := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		res, err := client.New(front.URL).StreamProgressive(ctx, id, client.StreamHooks{
			OnSlice: func(z, _ int) {
				if z == 0 {
					close(got0)
				}
			},
		})
		if err == nil && (res.Slices != 2 || res.Final.State != api.StateDone || res.Final.ID != id) {
			err = fmt.Errorf("stream result: %d slices, final %+v", res.Slices, res.Final)
		}
		result <- err
	}()

	select {
	case <-got0:
	case err := <-result:
		t.Fatalf("stream ended before slice 0 was seen: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("slice 0 did not reach the client through the router while the backend held slice 1")
	}
	open()
	if err := <-result; err != nil {
		t.Fatal(err)
	}
}
