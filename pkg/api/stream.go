package api

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"

	"ifdk/internal/compress"
	"ifdk/pkg/volume"
)

// Wire constants of the streaming surface. GET /v1/jobs/{id}/stream is a
// chunked multipart/mixed body: one part per output z-slice in the PFS image
// format (little-endian uint32 W, H header + float32 payload), delivered as
// each row group's epilogue lands it — while the job is still running —
// followed by a closing JSON part carrying the job's terminal View.
const (
	// ContentTypeSlice is the Content-Type of one slice part.
	ContentTypeSlice = "application/x-ifdk-slice"
	// HeaderSliceZ carries the part's global z index (0-based).
	HeaderSliceZ = "X-Slice-Z"
	// HeaderSliceTotal carries the volume's total slice count Nz.
	HeaderSliceTotal = "X-Slice-Total"
	// HeaderStreamEnd is set on the closing JSON part to the job's terminal
	// State.
	HeaderStreamEnd = "X-Stream-End"
	// HeaderPreviewFactor marks a slice part as belonging to the decimated
	// preview tier of a progressive job and carries its decimation factor.
	// Preview parts are emitted before any full-resolution part; their
	// HeaderSliceZ / HeaderSliceTotal indices address the coarse grid
	// (total = Nz/factor), so consumers must reassemble the two tiers into
	// separate volumes. Absent on full-resolution parts.
	HeaderPreviewFactor = "X-Preview-Factor"
	// EncodingGzip is the per-part Content-Encoding applied to slice
	// payloads when the request advertised Accept-Encoding: gzip. Parts are
	// compressed independently so a late-attaching client still decodes
	// from its first part.
	EncodingGzip = "gzip"
)

// PartWriter and PartReader are the slice-stream codec: the only code that
// frames or parses the multipart/mixed bodies of /stream and /preview. Each
// part's delimiter is written right after the part ("\r\n--B\r\n", or
// "\r\n--B--\r\n" after the last) rather than before the next one, as
// mime/multipart's Writer does. A parser can end a part only at its
// delimiter, so any multipart parser returns part N before part N+1 exists.

// Part is one decoded part of a slice stream.
type Part struct {
	Z, Total int           // slice index and count (the coarse grid on preview parts)
	Factor   int           // preview decimation factor; 0 on full-resolution parts
	Gzip     bool          // Wire is gzip-compressed
	Wire     []byte        // the payload as it crossed the wire
	RawLen   int           // decoded payload size in bytes
	Image    *volume.Image // the decoded slice; nil on the terminal part
	End      *View         // the job's terminal view; set only on the closing part
}

// PartWriter writes a slice stream into an HTTP response, flushing each
// part, delimiter included, as it is written.
type PartWriter struct {
	w        http.ResponseWriter
	rc       *http.ResponseController
	boundary string
	gzip     bool // compress slice payloads per part
	started  bool // the opening delimiter is out
}

// NewPartWriter sets the response's multipart Content-Type; the caller adds
// any other headers and calls WriteHeader before the first part.
func NewPartWriter(w http.ResponseWriter, gzipParts bool) *PartWriter {
	pw := &PartWriter{w: w, rc: http.NewResponseController(w), boundary: rand.Text(), gzip: gzipParts}
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+pw.boundary)
	return pw
}

// WriteSlice writes one slice part: raw in the PFS image format
// (volume.ImageToBytes), factor > 0 marking a preview-tier part, last
// closing the stream after it.
func (pw *PartWriter) WriteSlice(z, total, factor int, raw []byte, last bool) error {
	p := &Part{Z: z, Total: total, Factor: factor, Wire: raw}
	if pw.gzip {
		gz, err := compress.Gzip(raw)
		if err != nil {
			return err
		}
		p.Gzip, p.Wire = true, gz
	}
	return pw.write(p, last)
}

// Forward writes a slice part read from another stream, its payload
// byte-for-byte in whatever coding it arrived. Only WriteEnd closes a
// forwarded stream.
func (pw *PartWriter) Forward(p *Part) error { return pw.write(p, false) }

// WriteEnd writes the closing part: the job's terminal view as JSON.
func (pw *PartWriter) WriteEnd(v View) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return pw.write(&Part{End: &v, Wire: append(blob, '\n')}, true)
}

func (pw *PartWriter) write(p *Part, last bool) error {
	var b strings.Builder
	if !pw.started {
		pw.started = true
		b.WriteString("--" + pw.boundary + "\r\n")
	}
	if p.End != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\n%s: %s\r\n", HeaderStreamEnd, p.End.State)
	} else {
		fmt.Fprintf(&b, "Content-Type: %s\r\n%s: %d\r\n%s: %d\r\n", ContentTypeSlice, HeaderSliceZ, p.Z, HeaderSliceTotal, p.Total)
		if p.Factor > 0 {
			fmt.Fprintf(&b, "%s: %d\r\n", HeaderPreviewFactor, p.Factor)
		}
		if p.Gzip {
			b.WriteString("Content-Encoding: " + EncodingGzip + "\r\n")
		}
	}
	b.WriteString("\r\n")
	b.Write(p.Wire)
	b.WriteString("\r\n--" + pw.boundary)
	if last {
		b.WriteString("--")
	}
	b.WriteString("\r\n")
	if _, err := io.WriteString(pw.w, b.String()); err != nil {
		return err
	}
	return pw.rc.Flush()
}

// PartReader parses a slice stream, validating and decoding each part
// before returning it.
type PartReader struct{ mr *multipart.Reader }

// NewPartReader reads a body whose Content-Type header is contentType.
func NewPartReader(contentType string, body io.Reader) (*PartReader, error) {
	mt, params, err := mime.ParseMediaType(contentType)
	if err != nil || mt != "multipart/mixed" || params["boundary"] == "" {
		return nil, fmt.Errorf("api: slice stream Content-Type %q has no multipart boundary", contentType)
	}
	return &PartReader{mr: multipart.NewReader(body, params["boundary"])}, nil
}

// Next returns the next part, or io.EOF after the closing delimiter. A slice
// part comes back only with z in [0, total), a preview factor >= 1 when
// one is set, and a payload that decodes; a terminal part only with a view
// whose state matches its X-Stream-End.
func (pr *PartReader) Next() (*Part, error) {
	mp, err := pr.mr.NextRawPart()
	if err != nil {
		return nil, err
	}
	p := &Part{}
	if p.Wire, err = io.ReadAll(mp); err != nil {
		return nil, fmt.Errorf("api: reading stream part: %w", err)
	}
	h := mp.Header
	switch ct := h.Get("Content-Type"); {
	case ct == "application/json":
		p.End = &View{}
		if err := json.Unmarshal(p.Wire, p.End); err != nil {
			return nil, fmt.Errorf("api: terminal part: %w", err)
		}
		if end := h.Get(HeaderStreamEnd); end != string(p.End.State) {
			return nil, fmt.Errorf("api: terminal part has %s %q but state %q", HeaderStreamEnd, end, p.End.State)
		}
		return p, nil
	case ct != ContentTypeSlice:
		return nil, fmt.Errorf("api: stream part with Content-Type %q", ct)
	}
	z, zerr := strconv.Atoi(h.Get(HeaderSliceZ))
	total, terr := strconv.Atoi(h.Get(HeaderSliceTotal))
	if zerr != nil || terr != nil || z < 0 || z >= total {
		return nil, fmt.Errorf("api: slice part with bad %s %q / %s %q", HeaderSliceZ, h.Get(HeaderSliceZ), HeaderSliceTotal, h.Get(HeaderSliceTotal))
	}
	p.Z, p.Total = z, total
	if pf := h.Get(HeaderPreviewFactor); pf != "" {
		if p.Factor, err = strconv.Atoi(pf); err != nil || p.Factor < 1 {
			return nil, fmt.Errorf("api: slice part %d with bad %s %q", z, HeaderPreviewFactor, pf)
		}
	}
	raw := p.Wire
	switch enc := h.Get("Content-Encoding"); enc {
	case "":
	case EncodingGzip:
		p.Gzip = true
		raw, err = compress.Gunzip(p.Wire)
	default:
		err = fmt.Errorf("Content-Encoding %q", enc)
	}
	if err == nil {
		p.RawLen = len(raw)
		p.Image, err = volume.ImageFromBytes(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("api: slice part %d: %w", z, err)
	}
	return p, nil
}
