// Package checkpoint serializes a process image so it can be shipped to
// another node and restarted there — the paper's remote fork mechanism:
// "we do this by dumping the state of the process into a file in such a
// way that the file is executable; a bootstrapping routine restores the
// registers and data segments and returns control to the caller of the
// checkpoint routine when this file is executed" (§4.4, citing Smith &
// Ioannidis 1989).
//
// In this reproduction the "registers and data segments" are the
// world's AddressSpace plus a control block of named values; the
// "bootstrapping routine" is the entry function the restoring node runs
// with the restored space. A return value distinguishes the checkpoint
// side from the restored side, mirroring the paper's trick.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/page"
)

// Image is a serializable process image.
type Image struct {
	// PID is the process the image was captured from.
	PID ids.PID
	// Name labels the image.
	Name string
	// PageSize is the page size of the captured space.
	PageSize int
	// SpaceSize is the size in bytes of the captured space.
	SpaceSize int64
	// Data is the flat snapshot of the space.
	Data []byte
	// Control carries named control-block values (the simulated
	// "registers"): e.g. the program counter of a restartable task.
	Control map[string]int64
}

// Capture snapshots a process's address space into an Image.
func Capture(pid ids.PID, name string, space *mem.AddressSpace, control map[string]int64) (*Image, error) {
	data, err := space.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("checkpoint capture: %w", err)
	}
	ctl := make(map[string]int64, len(control))
	for k, v := range control {
		ctl[k] = v
	}
	return &Image{
		PID:       pid,
		Name:      name,
		PageSize:  space.PageSize(),
		SpaceSize: space.Size(),
		Data:      data,
		Control:   ctl,
	}, nil
}

// Bytes returns the image's size for transfer/checkpoint cost models.
func (img *Image) Bytes() int { return len(img.Data) }

// Encode serializes the image (the "executable file" of the paper's
// scheme).
func (img *Image) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("checkpoint encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes an image produced by Encode.
func Decode(data []byte) (*Image, error) {
	var img Image
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("checkpoint decode: %w", err)
	}
	return &img, nil
}

// Restore materializes the image as a fresh address space in store —
// the remote node's bootstrap step.
func (img *Image) Restore(store *page.Store) (*mem.AddressSpace, error) {
	if store.PageSize() != img.PageSize {
		return nil, fmt.Errorf("checkpoint restore: page size %d != image page size %d",
			store.PageSize(), img.PageSize)
	}
	space := mem.New(store, img.SpaceSize)
	if err := space.Restore(img.Data); err != nil {
		return nil, fmt.Errorf("checkpoint restore: %w", err)
	}
	return space, nil
}
