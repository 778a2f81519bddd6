package core

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// FuzzRead feeds arbitrary bytes to the deserializer: it must return an
// error or a working dictionary, never panic or hang.
func FuzzRead(f *testing.F) {
	// Seed with a real serialized dictionary and perturbations of it.
	keys := distinctKeys(rng.New(1), 40)
	d, err := Build(keys, Params{}, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("LCDSv1\x00\x00garbage"))
	mut := append([]byte(nil), good...)
	mut[20] ^= 0xff
	f.Add(mut)
	f.Add(emptyDictBytes(4, 10, 4, 1)) // trailing z columns span a whole block

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		loaded, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A dictionary that loads must answer queries without panicking.
		qr := rng.New(3)
		for i := 0; i < 5; i++ {
			_, _ = loaded.Contains(qr.Uint64n(1<<60), qr)
		}
	})
}
