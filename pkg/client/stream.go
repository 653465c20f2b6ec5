package client

import (
	"context"
	"fmt"
	"net/http"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// StreamResult is the outcome of consuming one job's slice stream to its
// terminal part.
type StreamResult struct {
	Volume *volume.Volume // the reassembled full volume (axial z-slices)
	Final  api.View       // the job's terminal view from the closing part
	Slices int            // slice parts received (== Volume.Nz on success)
	// WireBytes counts slice payload bytes as they crossed the wire
	// (compressed when per-part gzip was negotiated); RawBytes counts the
	// decoded slice bytes. Their ratio is the stream's compression saving.
	WireBytes int64
	RawBytes  int64

	// Progressive jobs lead the stream with their coarse tier (parts marked
	// X-Preview-Factor, indexed on the coarse grid). It reassembles here,
	// separate from Volume — previews refine, they never overwrite.
	Preview       *volume.Volume
	PreviewFactor int // decimation factor of the preview parts (0: none seen)
	PreviewSlices int // preview parts received (== Preview.Nz when complete)
}

// StreamHooks are the per-part callbacks of StreamProgressive. Both run
// after the part is decoded; either may be nil.
type StreamHooks struct {
	// OnSlice fires per full-resolution slice part (z on the full grid).
	OnSlice func(z, total int)
	// OnPreview fires per coarse preview part (z on the coarse grid,
	// total the coarse slice count) — the hook for time-to-first-preview
	// measurements and early rendering.
	OnPreview func(z, total, factor int)
}

// Stream consumes GET /v1/jobs/{id}/stream — live slices mid-run, replayed
// slices on late attach, terminal JSON view last — and reassembles the
// parts into a volume with exactly-once accounting: a duplicated or
// malformed slice part fails the stream rather than silently overwriting,
// and a terminal part arriving before every slice landed reports which
// count was short. Per-part gzip (negotiated via WithGzip) is decoded
// transparently. onSlice, when non-nil, runs after each slice part is
// decoded (z is the global slice index) — the hook for time-to-first-slice
// measurements and progressive rendering. Preview parts of a progressive
// job are reassembled into StreamResult.Preview; to observe them as they
// arrive, use StreamProgressive.
func (c *Client) Stream(ctx context.Context, id string, onSlice func(z, total int)) (*StreamResult, error) {
	return c.StreamProgressive(ctx, id, StreamHooks{OnSlice: onSlice})
}

// StreamProgressive is Stream with per-tier callbacks: OnPreview fires for
// each coarse part of a progressive job's leading tier, OnSlice for each
// full-resolution part. The server guarantees every preview part precedes
// the first full-resolution part, so OnPreview marks time-to-first-volume
// long before the stream completes.
func (c *Client) StreamProgressive(ctx context.Context, id string, hooks StreamHooks) (*StreamResult, error) {
	resp, pr, err := c.openParts(ctx, id, "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	res := &StreamResult{}
	var full, prev tier
	for {
		p, err := pr.Next()
		if err != nil {
			return nil, fmt.Errorf("client: stream for %s ended without a terminal part: %w", id, err)
		}
		if p.End != nil {
			res.Final = *p.End
			break
		}
		res.WireBytes += int64(len(p.Wire))
		res.RawBytes += int64(p.RawLen)
		if p.Factor > 0 {
			if err := prev.add(p, "preview slice"); err != nil {
				return nil, err
			}
			res.PreviewFactor = p.Factor
			if hooks.OnPreview != nil {
				hooks.OnPreview(p.Z, p.Total, p.Factor)
			}
			continue
		}
		if err := full.add(p, "slice"); err != nil {
			return nil, err
		}
		if hooks.OnSlice != nil {
			hooks.OnSlice(p.Z, p.Total)
		}
	}
	res.Volume, res.Slices = full.vol, full.n
	res.Preview, res.PreviewSlices = prev.vol, prev.n

	if res.Final.State == api.StateDone {
		if res.Volume == nil {
			return nil, fmt.Errorf("client: job %s done but stream carried no slices", id)
		}
		if res.Slices != res.Volume.Nz {
			return nil, fmt.Errorf("client: job %s done but only %d/%d slices streamed", id, res.Slices, res.Volume.Nz)
		}
	}
	return res, nil
}

// tier reassembles one tier of slice parts into a volume, exactly once per
// index: the first part sizes the volume, and a duplicated or out-of-range
// index fails rather than silently overwriting.
type tier struct {
	vol  *volume.Volume
	seen []bool
	n    int // parts received
}

func (t *tier) add(p *api.Part, what string) error {
	if t.vol == nil {
		t.vol = volume.New(p.Image.W, p.Image.H, p.Total, volume.IMajor)
		t.seen = make([]bool, p.Total)
	}
	if p.Z >= len(t.seen) {
		return fmt.Errorf("client: %s index %d out of range [0,%d)", what, p.Z, len(t.seen))
	}
	if t.seen[p.Z] {
		return fmt.Errorf("client: %s %d delivered twice", what, p.Z)
	}
	if err := t.vol.SetSliceZ(p.Z, p.Image); err != nil {
		return err
	}
	t.seen[p.Z] = true
	t.n++
	return nil
}

// openParts GETs a job's slice-stream endpoint (sub is "/stream" or
// "/preview") and returns the response with a reader over its parts.
func (c *Client) openParts(ctx context.Context, id, sub string) (*http.Response, *api.PartReader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+sub, nil)
	if err != nil {
		return nil, nil, err
	}
	// Explicit either way: left unset, Go's transport would advertise gzip
	// on its own and the per-part encoding would stop being the caller's
	// choice.
	enc := "identity"
	if c.gzip {
		enc = "gzip"
	}
	req.Header.Set("Accept-Encoding", enc)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, decodeError(resp)
	}
	pr, err := api.NewPartReader(resp.Header.Get("Content-Type"), resp.Body)
	if err != nil {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	return resp, pr, nil
}
