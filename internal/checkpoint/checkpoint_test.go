package checkpoint

import (
	"bytes"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/page"
)

func TestCaptureRestoreRoundTrip(t *testing.T) {
	store := page.NewStore(64)
	space := mem.New(store, 1024)
	if err := space.WriteAt([]byte("process state"), 100); err != nil {
		t.Fatal(err)
	}
	img, err := Capture(ids.PID(7), "worker", space, map[string]int64{"pc": 42})
	if err != nil {
		t.Fatal(err)
	}
	if img.PID != ids.PID(7) || img.Name != "worker" || img.Control["pc"] != 42 {
		t.Fatalf("image meta = %+v", img)
	}
	if img.Bytes() != 1024 {
		t.Fatalf("Bytes = %d", img.Bytes())
	}

	remote := page.NewStore(64)
	restored, err := img.Restore(remote)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if err := restored.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "process state" {
		t.Fatalf("restored state = %q", got)
	}
}

func TestEncodeDecode(t *testing.T) {
	store := page.NewStore(64)
	space := mem.New(store, 256)
	if err := space.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	img, err := Capture(ids.PID(1), "x", space, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.PID != img.PID || back.SpaceSize != img.SpaceSize || !bytes.Equal(back.Data, img.Data) {
		t.Fatal("round trip mismatch")
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestRestorePageSizeMismatch(t *testing.T) {
	space := mem.New(page.NewStore(64), 128)
	img, err := Capture(ids.PID(1), "x", space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.Restore(page.NewStore(128)); err == nil {
		t.Fatal("page-size mismatch must fail")
	}
}

func TestCaptureIsSnapshot(t *testing.T) {
	store := page.NewStore(64)
	space := mem.New(store, 128)
	if err := space.WriteAt([]byte("AAAA"), 0); err != nil {
		t.Fatal(err)
	}
	img, err := Capture(ids.PID(1), "x", space, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate after capture: image must not change.
	if err := space.WriteAt([]byte("BBBB"), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Data[:4], []byte("AAAA")) {
		t.Fatal("capture must be a point-in-time snapshot")
	}
}

func TestControlMapCopied(t *testing.T) {
	space := mem.New(page.NewStore(64), 64)
	ctl := map[string]int64{"pc": 1}
	img, err := Capture(ids.PID(1), "x", space, ctl)
	if err != nil {
		t.Fatal(err)
	}
	ctl["pc"] = 999
	if img.Control["pc"] != 1 {
		t.Fatal("control map must be copied at capture")
	}
}
