package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/hash"
)

// Serialization stores the construction state rather than the table: the
// keys, the accepted hash functions (f, g, z) and the per-bucket perfect
// hashes. Loading re-derives bucket loads, offsets, group histograms and
// every replicated row deterministically — the file is ≈ (2d + r + 3n)
// words instead of the table's ≈ 14·βn cells.

// serialMagic identifies the format; bump the digit on layout changes.
var serialMagic = [8]byte{'L', 'C', 'D', 'S', 'v', '1', 0, 0}

// MaxReadBuckets caps the bucket count (the paper's s) a deserialized header
// may declare, bounding the memory a hostile or corrupt file can make Read
// allocate (≈ 48 bytes per bucket of bookkeeping before any content is
// verified). 1<<24 buckets admits dictionaries of about four million keys at
// the default space factor; raise it explicitly for larger files.
var MaxReadBuckets = 1 << 24

// WriteTo serializes the dictionary. It implements io.WriterTo.
func (dict *Dict) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put := func(vs ...uint64) error {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			n, err := bw.Write(buf[:])
			written += int64(n)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if n, err := bw.Write(serialMagic[:]); err != nil {
		return int64(n), err
	}
	written += int64(len(serialMagic))

	strided := uint64(0)
	if dict.strided {
		strided = 1
	}
	if err := put(uint64(dict.n), uint64(dict.d), uint64(dict.s), uint64(dict.r),
		uint64(dict.m), strided); err != nil {
		return written, err
	}
	if err := put(dict.f.Coef...); err != nil {
		return written, err
	}
	if err := put(dict.g.Coef...); err != nil {
		return written, err
	}
	if err := put(dict.z...); err != nil {
		return written, err
	}
	// Keys in bucket order (so loading can regroup without sorting), and
	// per non-empty bucket its index and perfect hash.
	for b := 0; b < dict.s; b++ {
		if dict.hLoads[b] == 0 {
			continue
		}
		if err := put(uint64(b), uint64(dict.hLoads[b]), dict.phA[b], dict.phB[b]); err != nil {
			return written, err
		}
	}
	// Sentinel bucket terminator (s is never a valid bucket index).
	if err := put(uint64(dict.s)); err != nil {
		return written, err
	}
	// The keys themselves.
	keys := dict.Keys()
	if count := len(keys); count != dict.n {
		return written, fmt.Errorf("core: serialized %d keys, expected %d", count, dict.n)
	}
	if err := put(keys...); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// Read deserializes a dictionary written by WriteTo and reconstructs its
// table. The reconstruction verifies the stored perfect hashes; corrupt
// input surfaces as an error.
func Read(r io.Reader) (*Dict, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if magic != serialMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic[:])
	}
	get := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	getN := func(n int, what string, max uint64) ([]uint64, error) {
		out := make([]uint64, n)
		for i := range out {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("core: reading %s: %w", what, err)
			}
			if max > 0 && v >= max {
				return nil, fmt.Errorf("core: %s value %d out of range %d", what, v, max)
			}
			out[i] = v
		}
		return out, nil
	}

	hdr, err := getN(6, "header", 0)
	if err != nil {
		return nil, err
	}
	n, d, s, rr, m := int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4])
	if n < 0 || d < 3 || d > 64 || s < 1 || s > MaxReadBuckets || rr < 1 || rr > s ||
		m < 1 || m > s || s%m != 0 || n > s {
		return nil, fmt.Errorf("core: implausible header n=%d d=%d s=%d r=%d m=%d", n, d, s, rr, m)
	}
	dict := &Dict{
		n: n, d: d, s: s, r: rr, m: m,
		blkZ: s / rr, blkG: s / m,
		strided: hdr[5] == 1,
	}
	fc, err := getN(d, "f coefficients", 0)
	if err != nil {
		return nil, err
	}
	gc, err := getN(d, "g coefficients", 0)
	if err != nil {
		return nil, err
	}
	z, err := getN(rr, "z", uint64(s))
	if err != nil {
		return nil, err
	}
	dict.f = hash.PolyFromCoef(fc, uint64(s))
	dict.g = hash.PolyFromCoef(gc, uint64(rr))
	dict.z = z

	// The bucket table, per bucket: its stored load (0 if absent) and
	// perfect hash.
	loads := make([]int, s)
	dict.phA = make([]uint64, s)
	dict.phB = make([]uint64, s)
	for {
		b, err := get()
		if err != nil {
			return nil, fmt.Errorf("core: reading bucket table: %w", err)
		}
		if b == uint64(s) {
			break
		}
		if b > uint64(s) {
			return nil, fmt.Errorf("core: bucket index %d out of range", b)
		}
		rest, err := getN(3, "bucket entry", 0)
		if err != nil {
			return nil, err
		}
		if rest[0] == 0 || rest[0] > uint64(n) {
			return nil, fmt.Errorf("core: bucket %d load %d implausible", b, rest[0])
		}
		if loads[b] != 0 {
			return nil, fmt.Errorf("core: duplicate bucket %d", b)
		}
		loads[b], dict.phA[b], dict.phB[b] = int(rest[0]), rest[1], rest[2]
	}
	keys, err := getN(n, "keys", hash.MaxKey)
	if err != nil {
		return nil, err
	}

	// Recompute loads from the keys and check them against the stored
	// bucket table.
	dict.hLoads = make([]int, s)
	for _, x := range keys {
		dict.hLoads[dict.hEval(x)]++
	}
	total := 0
	for b, load := range loads {
		if load != 0 && dict.hLoads[b] != load {
			return nil, fmt.Errorf("core: bucket %d stored load %d, recomputed %d", b, load, dict.hLoads[b])
		}
		total += load
	}
	if total != n {
		return nil, fmt.Errorf("core: bucket loads sum to %d, want %d", total, n)
	}

	replay := func(b int, bucketKeys []uint64, span int) (hash.Pairwise, int, error) {
		if loads[b] == 0 {
			return hash.Pairwise{}, 0, fmt.Errorf("missing perfect hash for bucket %d", b)
		}
		h := hash.Pairwise{A: dict.phA[b], B: dict.phB[b], M: uint64(span)}
		if !h.IsInjectiveOn(bucketKeys, nil) {
			return hash.Pairwise{}, 0, fmt.Errorf("stored perfect hash for bucket %d is not injective", b)
		}
		return h, 1, nil
	}
	if err := dict.layoutWith(keys, replay); err != nil {
		return nil, err
	}
	dict.report = BuildReport{
		N: n, S: s, R: rr, M: m,
		Rho: dict.rho, Rows: dict.tab.Rows(), Cells: dict.tab.Size(),
		MaxBucketLoad: maxIntSlice(dict.hLoads),
		SumSquares:    sumSquaresInt(dict.hLoads),
	}
	return dict, nil
}

func maxIntSlice(xs []int) int {
	best := 0
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}

func sumSquaresInt(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x * x
	}
	return total
}
