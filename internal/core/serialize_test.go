package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/hash"
	"repro/internal/rng"
)

func TestSerializeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 300, 2000} {
		keys := distinctKeys(rng.New(uint64(n)+50), n)
		orig := mustBuild(t, keys, 51)
		var buf bytes.Buffer
		written, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatalf("n=%d: WriteTo: %v", n, err)
		}
		if written != int64(buf.Len()) {
			t.Errorf("n=%d: WriteTo reported %d bytes, wrote %d", n, written, buf.Len())
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatalf("n=%d: Read: %v", n, err)
		}
		// The reconstructed table must be cell-for-cell identical.
		if loaded.Table().Size() != orig.Table().Size() {
			t.Fatalf("n=%d: table sizes differ", n)
		}
		for i := 0; i < orig.Table().Size(); i++ {
			if orig.Table().AtIndex(i) != loaded.Table().AtIndex(i) {
				t.Fatalf("n=%d: cell %d differs", n, i)
			}
		}
		// Queries must work.
		qr := rng.New(52)
		for _, k := range keys {
			ok, err := loaded.Contains(k, qr)
			if err != nil || !ok {
				t.Fatalf("n=%d: loaded dictionary lost key %d (err %v)", n, k, err)
			}
		}
		for i := 0; i < 500; i++ {
			x := qr.Uint64n(hash.MaxKey)
			a, err1 := orig.Contains(x, rng.New(uint64(i)))
			b, err2 := loaded.Contains(x, rng.New(uint64(i)))
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("n=%d: answers diverge on %d", n, x)
			}
		}
	}
}

func TestSerializeCompact(t *testing.T) {
	keys := distinctKeys(rng.New(60), 4000)
	d := mustBuild(t, keys, 61)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tableBytes := d.Table().Size() * 16
	if buf.Len() >= tableBytes/2 {
		t.Errorf("serialized %d bytes not compact vs table %d bytes", buf.Len(), tableBytes)
	}
}

// TestSerializedBytesPinned: the wire format stores construction state, not
// cells, so it is independent of how the table backs its rows. These
// digests were taken from builds that materialized every replicated cell;
// the block-row layout must write the same bytes for the same keys, seed
// and parameters.
func TestSerializedBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
		p    Params
		size int
		sha  string
	}{
		{0, 1, Params{}, 136, "3a4d00cfdd17562e47f68bd087329d584f2376f9b47416cb864c313176047d38"},
		{1, 2, Params{}, 176, "40dbca67488a1042c0745333b195696592f0cd1e3357df0265ceddf4bdc689a8"},
		{300, 3, Params{}, 11088, "183aef5a53b1e085936927981360fadb21156764392519caab9431fa63eecd77"},
		{2048, 4, Params{}, 75312, "ddb81c9dbeb8cba6d318cfe918807bfaa864c06027de7bda0a782ae42332c7c7"},
		{5000, 5, Params{Strided: true}, 182104, "3ed7f71ed8738a2deb53fb737b2022c16337ced18aebc3a30108f21714aab078"},
		{4096, 6, Params{D: 5}, 148624, "381eb316301f1fcfb766ff38583f42274845cdf637c08894de2fd47444c0fcd1"},
	} {
		// The build depends on the key set, not its order: the reversed
		// slice must serialize to the same bytes.
		keys := distinctKeys(rng.New(uint64(tc.n)+90), tc.n)
		reversed := append([]uint64(nil), keys...)
		slices.Reverse(reversed)
		for i, ks := range [][]uint64{keys, reversed} {
			d, err := Build(ks, tc.p, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := d.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if buf.Len() != tc.size || hex.EncodeToString(sum[:]) != tc.sha {
				t.Errorf("n=%d seed=%d %+v reversed=%v: %d bytes, sha256 %x; want %d bytes, %s",
					tc.n, tc.seed, tc.p, i == 1, buf.Len(), sum, tc.size, tc.sha)
			}
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	keys := distinctKeys(rng.New(70), 200)
	d := mustBuild(t, keys, 71)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at various points must error, never panic.
	for _, cut := range []int{0, 4, 8, 20, len(good) / 2, len(good) - 1} {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Flip a byte somewhere in the body; the loader must either reject it
	// or produce a dictionary that still answers all stored keys (a flip
	// may hit padding). Never panic.
	for pos := 16; pos < len(good); pos += len(good) / 13 {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		loaded, err := Read(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		qr := rng.New(72)
		for _, k := range keys {
			ok, err := loaded.Contains(k, qr)
			if err != nil || !ok {
				// Acceptable: the corruption was detected at query time
				// or lost a key — but only if the loader could not have
				// known. What we really guard against is a panic, which
				// the test harness would catch.
				break
			}
		}
	}
}

// emptyDictBytes serializes a key-free dictionary with the given shape, zero
// hash coefficients and z = 0: the smallest input that passes Read's header
// checks and reaches the table layout.
func emptyDictBytes(d, s, r, m int) []byte {
	var buf bytes.Buffer
	buf.Write(serialMagic[:])
	words := []uint64{0, uint64(d), uint64(s), uint64(r), uint64(m), 0}
	words = append(words, make([]uint64, 2*d+r)...)
	words = append(words, uint64(s)) // bucket-table terminator
	for _, w := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		buf.Write(b[:])
	}
	return buf.Bytes()
}

// TestReadTrailingZColumns loads a header whose z blocks of ⌊s/r⌋ = 2 cells
// leave s mod r = 2 trailing columns, a whole block past the last value.
// Read must lay it out without panicking, the trailing z cells must repeat
// z[r−1], and the empty dictionary must answer false.
func TestReadTrailingZColumns(t *testing.T) {
	loaded, err := Read(bytes.NewReader(emptyDictBytes(4, 10, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for col := 6; col < 10; col++ {
		if got := loaded.Table().At(loaded.zRow(), col).Lo; got != loaded.z[3] {
			t.Errorf("z column %d = %d, want z[r−1] = %d", col, got, loaded.z[3])
		}
	}
	qr := rng.New(75)
	for i := 0; i < 20; i++ {
		if ok, err := loaded.Contains(qr.Uint64n(1<<60), qr); err != nil || ok {
			t.Fatalf("empty dictionary answered %v (err %v)", ok, err)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("not a dictionary at all......"))); err == nil {
		t.Error("garbage accepted")
	}
}
