package volume

import (
	"testing"
	"testing/quick"
)

func TestFloat32BytesRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		out, err := BytesToFloat32s(Float32sToBytes(vals))
		if err != nil {
			return false
		}
		if len(out) != len(vals) {
			return false
		}
		for n := range vals {
			// NaNs compare unequal; compare the bit patterns via re-encode.
			if out[n] != vals[n] && !(vals[n] != vals[n] && out[n] != out[n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBytesToFloat32sBadLength(t *testing.T) {
	if _, err := BytesToFloat32s(make([]byte, 5)); err == nil {
		t.Error("non-multiple-of-4 should error")
	}
}

func TestImageBytesRoundTrip(t *testing.T) {
	m := NewImage(5, 3)
	fillRandom(m.Data, 3)
	back, err := ImageFromBytes(ImageToBytes(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.W != m.W || back.H != m.H {
		t.Fatalf("size mismatch %dx%d", back.W, back.H)
	}
	for n := range m.Data {
		if back.Data[n] != m.Data[n] {
			t.Fatal("payload mismatch")
		}
	}
}

func TestImageFromBytesErrors(t *testing.T) {
	if _, err := ImageFromBytes(nil); err == nil {
		t.Error("empty blob should error")
	}
	m := NewImage(2, 2)
	blob := ImageToBytes(m)
	if _, err := ImageFromBytes(blob[:len(blob)-1]); err == nil {
		t.Error("truncated blob should error")
	}
	// 4·2³¹·2³¹ wraps to 0 in int arithmetic: an 8-byte blob claiming a
	// 2³¹×2³¹ image must be refused, not allocated.
	forged := []byte{0, 0, 0, 0x80, 0, 0, 0, 0x80}
	if _, err := ImageFromBytes(forged); err == nil {
		t.Error("overflowing header should error")
	}
}
