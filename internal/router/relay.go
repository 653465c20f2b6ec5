package router

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ifdk/pkg/api"
)

// The long-lived streaming endpoints — SSE /events and multipart /stream —
// are not reverse-proxied: the router terminates them and re-emits every
// frame itself. A raw proxy ties the client's connection to one backend's
// lifetime, so a backend death mid-stream surfaces as a dropped connection
// and, on reconnect, "unavailable" until the client gives up. The relay
// instead holds the client connection open across the death: it notices the
// backend stream break, waits for the health loop to fail the job over to a
// survivor (failover resubmits it under a fresh backend ID), reattaches to
// the survivor's stream, and keeps forwarding — deduplicating what the
// re-execution replays.
//
// Deduplication leans on determinism. A re-executed job publishes the same
// event sequence its first execution did (same Spec → same rounds, same
// slices, same publish count), so the SSE relay forwards only events whose
// Seq exceeds the highest already delivered and the client sees one gapless,
// strictly-increasing stream with no restart. Slice parts are bit-identical
// across executions, so the multipart relay forwards each z exactly once,
// whichever execution produced it.

// relayPoll is the reattach probe period while a takeover is in flight.
const relayPoll = 25 * time.Millisecond

var (
	errNoRoute     = errors.New("router: job unknown in the fleet")
	errBackendDown = errors.New("router: job's backend is down")
)

// dialJob opens a streaming GET against the job's *current* backend (the
// route table moves under failover, so every reattach re-resolves). A non-OK
// backend response comes back as *rawResponse; transport failures count
// against the backend's health.
func (rt *Router) dialJob(ctx context.Context, id, sub string, hdr map[string]string) (*http.Response, string, error) {
	route, ok := rt.resolve(ctx, id)
	if !ok {
		return nil, "", errNoRoute
	}
	b, errCode := rt.routeTarget(route)
	if errCode != "" {
		return nil, route.backend, errBackendDown
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/v1/jobs/"+route.backendID+sub, nil)
	if err != nil {
		return nil, route.backend, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := rt.streamClient.Do(req)
	if err != nil {
		rt.markFailure(ctx, route.backend)
		return nil, route.backend, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return nil, route.backend, &rawResponse{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: body}
	}
	return resp, route.backend, nil
}

// fetchView reads the job's current view through the route table (public ID
// rewritten), folding the observed state in. It is the relay's tie-breaker
// when a backend stream ends without a terminal frame: if the fleet already
// knows the outcome, the relay can settle the client instead of waiting.
func (rt *Router) fetchView(ctx context.Context, id string) (api.View, bool) {
	route, ok := rt.resolve(ctx, id)
	if !ok {
		return api.View{}, false
	}
	b, errCode := rt.routeTarget(route)
	if errCode != "" {
		return api.View{}, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/v1/jobs/"+route.backendID, nil)
	if err != nil {
		return api.View{}, false
	}
	resp, err := rt.opt.Client.Do(req)
	if err != nil {
		rt.markFailure(ctx, route.backend)
		return api.View{}, false
	}
	defer resp.Body.Close()
	var v api.View
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&v) != nil {
		return api.View{}, false
	}
	rt.noteState(id, v.ID, v.State)
	v.ID = id
	return v, true
}

// noteState folds a state observed for a public job into its route.
func (rt *Router) noteState(id, backendID string, st api.State) {
	rt.mu.Lock()
	if cur, ok := rt.jobs[id]; ok && cur.backendID == backendID {
		cur.setState(st)
	}
	rt.mu.Unlock()
}

// terminalEventType maps a terminal state to its stream-ending event type.
func terminalEventType(st api.State) api.EventType {
	switch st {
	case api.StateFailed:
		return api.EventFailed
	case api.StateCancelled:
		return api.EventCancelled
	default:
		return api.EventDone
	}
}

// relayEvents serves GET /v1/jobs/{id}/events by relaying the owning
// backend's SSE stream frame by frame. The cursor (seeded from the client's
// Last-Event-ID / ?after=) is the single source of truth for what the client
// has seen: only frames beyond it are forwarded, and after a takeover it is
// passed to the survivor as ?after= so the deterministic re-execution's
// already-delivered prefix is filtered at the source. If the takeover target
// settled below the cursor (the survivor served the resubmission from its
// result cache, whose terminal event predates what the client saw), the
// relay synthesizes the closing frame at cursor+1 from the job's view.
func (rt *Router) relayEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cursor := int64(0)
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after")
	}
	if lastID != "" {
		n, err := strconv.ParseInt(lastID, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, api.CodeBadRequest, "Last-Event-ID must be a non-negative integer")
			return
		}
		cursor = n
	}

	// A relay that ends without delivering a terminal frame (client gave up
	// mid-run) leaves the route's observed state stale — refresh it so the
	// failover predicate and the terminal TTL stay truthful.
	terminalSeen := false
	defer func() {
		if !terminalSeen {
			go rt.refreshState(id)
		}
	}()

	rc := http.NewResponseController(w)
	headersSent := false
	sendHeaders := func() error {
		if headersSent {
			return nil
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		headersSent = true
		return rc.Flush()
	}
	emit := func(e api.Event) error {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
			return err
		}
		return rc.Flush()
	}
	settle := func() bool { // close out from the view when the stream cannot
		v, ok := rt.fetchView(r.Context(), id)
		if !ok || !v.State.Terminal() {
			return false
		}
		terminalSeen = true
		if sendHeaders() != nil {
			return true
		}
		_ = emit(api.Event{
			Seq: cursor + 1, Job: id, Type: terminalEventType(v.State),
			Time:  time.Now().UTC().Format(time.RFC3339Nano),
			State: v.State, Error: v.Error,
		})
		return true
	}

	deadline := time.Now().Add(rt.opt.FailoverWait)
	attached := false
	for {
		if r.Context().Err() != nil {
			return
		}
		resp, backend, err := rt.dialJob(r.Context(), id, "/events?after="+strconv.FormatInt(cursor, 10),
			map[string]string{"Accept": "text/event-stream"})
		if err != nil {
			var raw *rawResponse
			if asRaw(err, &raw) && !headersSent {
				raw.write(w) // the backend's verdict (not_found, bad request) relays verbatim
				return
			}
			if settle() {
				return
			}
			if errors.Is(err, errNoRoute) && !headersSent {
				writeErr(w, api.CodeNotFound, "no such job %q in the fleet", id)
				return
			}
			if time.Now().After(deadline) {
				if !headersSent {
					writeErr(w, api.CodeUnavailable, "job %s: no live backend within the failover wait", id)
				}
				return
			}
			select {
			case <-time.After(relayPoll):
			case <-r.Context().Done():
				return
			}
			continue
		}
		if attached {
			rt.relayTakeovers.Add(1)
		}
		attached = true
		if sendHeaders() != nil {
			resp.Body.Close()
			return
		}
		deadline = time.Now().Add(rt.opt.FailoverWait)
		terminal, pumpErr := rt.pumpEvents(resp.Body, id, &cursor, emit)
		resp.Body.Close()
		if terminal != "" {
			terminalSeen = true
			return
		}
		if r.Context().Err() != nil {
			return // the client went away, not the backend
		}
		if pumpErr != nil {
			rt.markFailure(r.Context(), backend)
		}
		// The backend stream ended without a terminal frame: the backend died
		// mid-stream, or the takeover settled below the cursor. Try the view,
		// then loop to reattach.
		if settle() {
			return
		}
	}
}

// pumpEvents copies one backend SSE connection to the client, rewriting each
// event's job ID to the public one and dropping frames at or below the
// cursor (replay overlap, or a re-execution's already-delivered prefix).
// It returns the terminal state once a terminal frame has been forwarded.
func (rt *Router) pumpEvents(body io.Reader, id string, cursor *int64, emit func(api.Event) error) (api.State, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			return "", err
		}
		if e.Seq <= *cursor {
			continue
		}
		backendJob := e.Job
		e.Job = id
		if err := emit(e); err != nil {
			return "", err
		}
		*cursor = e.Seq
		if e.Type.Terminal() {
			rt.noteState(id, backendJob, e.State)
			return e.State, nil
		}
	}
	return "", sc.Err()
}

// relayStream serves GET /v1/jobs/{id}/stream by re-terminating the owning
// backend's multipart slice stream under the router's own boundary. Each
// slice part is forwarded at most once, keyed by its preview factor and z
// index — after a takeover the survivor's stream replays every slice it has
// (PFS replay plus the re-execution's live tail), and the bit-identical
// duplicates are dropped here so the client's exactly-once accounting
// holds. Parts are forwarded whole (read fully before the first byte is
// re-emitted) and closed as they are written: a backend dying mid-part must
// not leak a truncated payload into the client's stream, and a part that
// has fully arrived must not wait for the next. The closing JSON part
// carries the public job ID whichever execution finished the job.
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	hdr := map[string]string{}
	// The client's content-coding choice passes through untouched: slice
	// parts are forwarded byte-for-byte, so whatever per-part encoding the
	// backend negotiates is exactly what the client asked for.
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		hdr["Accept-Encoding"] = ae
	}

	terminalSeen := false
	defer func() {
		if !terminalSeen {
			go rt.refreshState(id)
		}
	}()

	var pw *api.PartWriter    // nil until the response headers are out
	seen := map[[2]int]bool{} // {preview factor, z} of every forwarded slice

	deadline := time.Now().Add(rt.opt.FailoverWait)
	attached := false
	for {
		if r.Context().Err() != nil {
			return
		}
		resp, backend, err := rt.dialJob(r.Context(), id, "/stream", hdr)
		if err != nil {
			var raw *rawResponse
			if asRaw(err, &raw) && pw == nil {
				raw.write(w)
				return
			}
			if pw != nil {
				// Mid-relay refusal (e.g. the re-execution was cancelled on
				// the survivor: terminal, no slices): settle with the view.
				if v, ok := rt.fetchView(r.Context(), id); ok && v.State.Terminal() {
					terminalSeen = true
					_ = pw.WriteEnd(v)
					return
				}
			}
			if errors.Is(err, errNoRoute) && pw == nil {
				writeErr(w, api.CodeNotFound, "no such job %q in the fleet", id)
				return
			}
			if time.Now().After(deadline) {
				if pw == nil {
					writeErr(w, api.CodeUnavailable, "job %s: no live backend within the failover wait", id)
				}
				return
			}
			select {
			case <-time.After(relayPoll):
			case <-r.Context().Done():
				return
			}
			continue
		}
		if attached {
			rt.relayTakeovers.Add(1)
		}
		attached = true
		if pw == nil {
			pw = api.NewPartWriter(w, false) // parts are forwarded in their backend coding
			w.Header().Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			if http.NewResponseController(w).Flush() != nil {
				resp.Body.Close()
				return
			}
		}
		deadline = time.Now().Add(rt.opt.FailoverWait)
		done, pumpErr := rt.pumpStream(resp, id, seen, pw)
		resp.Body.Close()
		if done {
			terminalSeen = true
			return
		}
		if r.Context().Err() != nil {
			return
		}
		if pumpErr != nil {
			rt.markFailure(r.Context(), backend)
		}
		// Backend died mid-stream: loop to reattach after the failover.
	}
}

// pumpStream copies one backend slice stream into the relay's writer, part
// by part, skipping slices already forwarded. It reports done once the
// terminal part has been relayed (with the public job ID restored). The
// dedup key includes the part's preview factor: a progressive stream
// carries a coarse slice z and a full-resolution slice z as distinct parts,
// and keying on the bare index would silently drop the refinement.
func (rt *Router) pumpStream(resp *http.Response, id string, seen map[[2]int]bool, pw *api.PartWriter) (bool, error) {
	pr, err := api.NewPartReader(resp.Header.Get("Content-Type"), resp.Body)
	if err != nil {
		return false, err
	}
	for {
		p, err := pr.Next()
		if err != nil {
			// EOF or a truncated part mid-stream: the backend died. Nothing
			// of the broken part was forwarded; the caller reattaches.
			return false, err
		}
		if p.End != nil {
			rt.noteState(id, p.End.ID, p.End.State)
			p.End.ID = id // public identity survives failover
			return true, pw.WriteEnd(*p.End)
		}
		key := [2]int{p.Factor, p.Z}
		if seen[key] {
			continue // replayed duplicate after a takeover
		}
		if err := pw.Forward(p); err != nil {
			return true, err
		}
		seen[key] = true
	}
}
