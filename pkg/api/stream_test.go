package api

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"testing"

	"ifdk/pkg/volume"
)

// streamPart is one part to write: a slice (end == nil) or the terminal view.
type streamPart struct {
	z, total, factor int
	img              *volume.Image
	end              *View
}

// writeStream frames parts with a PartWriter and returns the response's
// Content-Type and body. The last part is marked last.
func writeStream(t testing.TB, gzip bool, parts []streamPart) (string, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	pw := NewPartWriter(rec, gzip)
	for i, p := range parts {
		var err error
		if p.end != nil {
			err = pw.WriteEnd(*p.end)
		} else {
			err = pw.WriteSlice(p.z, p.total, p.factor, volume.ImageToBytes(p.img), i == len(parts)-1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return rec.Header().Get("Content-Type"), rec.Body.Bytes()
}

func testImage(w, h int, seed float32) *volume.Image {
	img := volume.NewImage(w, h)
	for i := range img.Data {
		img.Data[i] = seed + float32(i)/7
	}
	return img
}

// Writer → reader round trip: every part comes back with its indices,
// tier, coding and bit-exact payload, the terminal view intact, and the
// stream ends cleanly after the part marked last.
func TestPartRoundTrip(t *testing.T) {
	done := &View{ID: "j00000007", State: StateDone, Progress: 1}
	full := []streamPart{
		{z: 0, total: 3, img: testImage(4, 3, 1)},
		{z: 2, total: 3, img: testImage(4, 3, 2)},
		{z: 1, total: 3, img: testImage(4, 3, 3)},
	}
	preview := []streamPart{
		{z: 0, total: 2, factor: 2, img: testImage(2, 2, 4)},
		{z: 1, total: 2, factor: 2, img: testImage(2, 2, 5)},
	}
	cases := []struct {
		name  string
		gzip  bool
		parts []streamPart
	}{
		{"full+end", false, append(append([]streamPart{}, full...), streamPart{end: done})},
		{"full+end gzip", true, append(append([]streamPart{}, full...), streamPart{end: done})},
		{"progressive", false, append(append(append([]streamPart{}, preview...), full...), streamPart{end: done})},
		{"progressive gzip", true, append(append(append([]streamPart{}, preview...), full...), streamPart{end: done})},
		{"preview artifact", false, preview},
		{"preview artifact gzip", true, preview},
		{"end only", false, []streamPart{{end: &View{ID: "j1", State: StateCancelled, Error: "cancelled"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct, body := writeStream(t, tc.gzip, tc.parts)
			pr, err := NewPartReader(ct, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.parts {
				got, err := pr.Next()
				if err != nil {
					t.Fatalf("part %d: %v", i, err)
				}
				if want.end != nil {
					if got.End == nil || got.Image != nil || *got.End != *want.end {
						t.Fatalf("part %d: terminal part %+v, want view %+v", i, got, *want.end)
					}
					continue
				}
				if got.End != nil || got.Z != want.z || got.Total != want.total || got.Factor != want.factor || got.Gzip != tc.gzip {
					t.Fatalf("part %d: z=%d total=%d factor=%d gzip=%v, want %d/%d/%d/%v",
						i, got.Z, got.Total, got.Factor, got.Gzip, want.z, want.total, want.factor, tc.gzip)
				}
				raw := volume.ImageToBytes(want.img)
				if got.RawLen != len(raw) || (!tc.gzip && !bytes.Equal(got.Wire, raw)) {
					t.Fatalf("part %d: wire %d B / raw %d B, want raw %d B", i, len(got.Wire), got.RawLen, len(raw))
				}
				if !bytes.Equal(volume.ImageToBytes(got.Image), raw) {
					t.Fatalf("part %d: decoded slice differs from the one written", i)
				}
			}
			if p, err := pr.Next(); err != io.EOF {
				t.Fatalf("after the last part: %+v, %v; want io.EOF", p, err)
			}
		})
	}
}

// A forwarded part keeps its coding and payload bytes: the relay re-frames
// a gzip stream without touching what the backend compressed.
func TestPartForwardVerbatim(t *testing.T) {
	ct, body := writeStream(t, true, []streamPart{{z: 1, total: 4, factor: 2, img: testImage(3, 3, 9)}})
	pr, err := NewPartReader(ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	in, err := pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	pw := NewPartWriter(rec, false)
	if err := pw.Forward(in); err != nil {
		t.Fatal(err)
	}
	if err := pw.WriteEnd(View{ID: "j2", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	pr2, err := NewPartReader(rec.Header().Get("Content-Type"), rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pr2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Gzip || out.Z != 1 || out.Total != 4 || out.Factor != 2 || !bytes.Equal(out.Wire, in.Wire) {
		t.Fatalf("forwarded part %+v, want the original gzip bytes and headers", out)
	}
}

// Each part is readable as soon as its bytes exist: a reader over a pipe
// gets part 0 while part 1 has not been written.
func TestPartReadableBeforeNext(t *testing.T) {
	ct, body := writeStream(t, false, []streamPart{
		{z: 0, total: 2, img: testImage(2, 2, 1)},
		{z: 1, total: 2, img: testImage(2, 2, 2)},
	})
	// The body's first part, delimiter included, ends where the second
	// part's headers begin.
	cut := bytes.Index(body, []byte("Content-Type: "+ContentTypeSlice+"\r\nX-Slice-Z: 1"))
	if cut < 0 {
		t.Fatal("second part not found in the body")
	}
	r, w := io.Pipe()
	defer w.Close()
	go func() { _, _ = w.Write(body[:cut]) }() // part 0 only; the writer then stalls
	pr, err := NewPartReader(ct, r)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pr.Next()
	if err != nil || p.Z != 0 {
		t.Fatalf("part 0 with part 1 unwritten: %+v, %v", p, err)
	}
}

// Malformed parts are refused with an error, never returned.
func TestPartReaderRejects(t *testing.T) {
	const ct = "multipart/mixed; boundary=B"
	part := func(head, payload string) string { return "--B\r\n" + head + "\r\n" + payload + "\r\n--B--\r\n" }
	img := string(volume.ImageToBytes(testImage(2, 2, 1)))
	slice := "Content-Type: " + ContentTypeSlice + "\r\n"
	for name, body := range map[string]string{
		"z out of range": part(slice+"X-Slice-Z: 2\r\nX-Slice-Total: 2\r\n", img),
		"negative z":     part(slice+"X-Slice-Z: -1\r\nX-Slice-Total: 2\r\n", img),
		"zero total":     part(slice+"X-Slice-Z: 0\r\nX-Slice-Total: 0\r\n", img),
		"no z":           part(slice+"X-Slice-Total: 2\r\n", img),
		"factor zero":    part(slice+"X-Slice-Z: 0\r\nX-Slice-Total: 2\r\nX-Preview-Factor: 0\r\n", img),
		"bad gzip":       part(slice+"X-Slice-Z: 0\r\nX-Slice-Total: 2\r\nContent-Encoding: gzip\r\n", img),
		"unknown coding": part(slice+"X-Slice-Z: 0\r\nX-Slice-Total: 2\r\nContent-Encoding: br\r\n", img),
		"short payload":  part(slice+"X-Slice-Z: 0\r\nX-Slice-Total: 2\r\n", img[:10]),
		"unknown type":   part("Content-Type: text/plain\r\n", "hi"),
		"bad view":       part("Content-Type: application/json\r\nX-Stream-End: done\r\n", "{"),
		"end mismatch":   part("Content-Type: application/json\r\nX-Stream-End: done\r\n", `{"state":"failed"}`),
		"truncated":      "--B\r\n" + slice + "X-Slice-Z: 0\r\nX-Slice-Total: 2\r\n\r\n" + img,
	} {
		pr, err := NewPartReader(ct, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if p, err := pr.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: got %+v, %v; want an error", name, p, err)
		}
	}
	if _, err := NewPartReader("application/json", nil); err == nil {
		t.Error("non-multipart Content-Type accepted")
	}
}

// FuzzPartReader: whatever the bytes, the reader never panics, and every
// part it returns passed validation — a slice part with z in [0, total),
// a factor that is 0 or >= 1 and a decoded image, or a terminal view.
func FuzzPartReader(f *testing.F) {
	done := &View{ID: "j3", State: StateDone}
	for _, gz := range []bool{false, true} {
		ct, body := writeStream(f, gz, []streamPart{
			{z: 0, total: 2, factor: 2, img: testImage(2, 2, 1)},
			{z: 1, total: 2, img: testImage(3, 2, 2)},
			{end: done},
		})
		f.Add(ct, body)
		ct, body = writeStream(f, gz, []streamPart{{z: 0, total: 1, factor: 4, img: testImage(1, 1, 3)}})
		f.Add(ct, body)
	}
	f.Fuzz(func(t *testing.T, ct string, body []byte) {
		pr, err := NewPartReader(ct, bytes.NewReader(body))
		if err != nil {
			return
		}
		for n := 0; n < 64; n++ {
			p, err := pr.Next()
			if err != nil {
				return
			}
			if p.End != nil {
				if p.Image != nil {
					t.Fatalf("terminal part with an image: %+v", p)
				}
				continue
			}
			if p.Total <= 0 || p.Z < 0 || p.Z >= p.Total || p.Factor < 0 || p.Image == nil ||
				p.RawLen != 8+4*len(p.Image.Data) {
				t.Fatalf("invalid part returned: %+v", p)
			}
		}
	})
}
