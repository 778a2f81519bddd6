package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The data plane's JSON codec. /batch bodies in the canonical form
// {"keys":[k,...]} are parsed by hand, and the answers of /contains,
// /batch, /insert and /delete are appended into pooled buffers and sent in
// one write with a Content-Length. The bytes are exactly what
// encoding/json writes for the same answers; any body outside the
// canonical grammar is decoded by encoding/json, which stays the
// reference for what the API accepts. The control plane (/info, /debug/*,
// /metrics) keeps encoding/json and fmt.

// batchRequest is the /batch body as encoding/json decodes it.
type batchRequest struct {
	Keys []uint64 `json:"keys"`
}

// wireScratch is one data-plane request's reusable memory.
type wireScratch struct {
	body bytes.Buffer // the /batch request body
	keys []uint64     // its keys
	out  []bool       // their answers
	resp []byte       // the encoded response
}

var wireScratchPool = sync.Pool{New: func() any { return new(wireScratch) }}

func getScratch() *wireScratch { return wireScratchPool.Get().(*wireScratch) }

func putScratch(sc *wireScratch) {
	if cap(sc.keys) > batchLimit {
		sc.keys = nil // a refused oversized batch; don't keep its storage
	}
	wireScratchPool.Put(sc)
}

// decodeBatchKeys decodes a /batch body, reusing keys' storage. A body in
// the canonical grammar is parsed by parseBatchKeys; every other body goes
// to encoding/json with unknown fields disallowed, so it gets exactly
// encoding/json's verdict and error message.
func decodeBatchKeys(body []byte, keys []uint64) ([]uint64, error) {
	if parsed, ok := parseBatchKeys(body, keys[:0]); ok {
		return parsed, nil
	}
	req := batchRequest{Keys: keys[:0]}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req.Keys, err
}

// parseBatchKeys appends the keys of a canonical /batch body to dst:
//
//	ws { ws "keys" ws : ws [ ws (uint (ws , ws uint)*)? ws ] ws } ws EOF
//
// where ws is JSON whitespace and uint is a JSON integer without sign,
// fraction, exponent or leading zero that fits in a uint64. ok is false
// for any other body, valid JSON or not.
func parseBatchKeys(b []byte, dst []uint64) (keys []uint64, ok bool) {
	const field = `"keys"`
	i, ok := expect(b, 0, '{')
	if !ok {
		return dst, false
	}
	i = skipWS(b, i)
	if !bytes.HasPrefix(b[i:], []byte(field)) {
		return dst, false
	}
	if i, ok = expect(b, i+len(field), ':'); !ok {
		return dst, false
	}
	if i, ok = expect(b, i, '['); !ok {
		return dst, false
	}
	if j, empty := expect(b, i, ']'); empty {
		i = j
	} else {
		for {
			var k uint64
			if k, i, ok = parseUint(b, skipWS(b, i)); !ok {
				return dst, false
			}
			dst = append(dst, k)
			if j, more := expect(b, i, ','); more {
				i = j
				continue
			}
			if i, ok = expect(b, i, ']'); !ok {
				return dst, false
			}
			break
		}
	}
	if i, ok = expect(b, i, '}'); !ok {
		return dst, false
	}
	return dst, skipWS(b, i) == len(b)
}

// skipWS returns the index of the first non-whitespace byte of b at or
// after i.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// expect skips whitespace from i and reports whether byte c comes next,
// returning the index after it.
func expect(b []byte, i int, c byte) (int, bool) {
	i = skipWS(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// parseUint parses the digits of a canonical uint at b[i:] and returns
// the value and the index after them. A leading 0 ends the number, so
// "01" stops after the 0 and the caller's next check refuses the 1.
func parseUint(b []byte, i int) (v uint64, next int, ok bool) {
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, false
	}
	if b[i] == '0' {
		return 0, i + 1, true
	}
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	return v, i, true
}

// appendMembers appends a /batch answer, {"members":[...]} and a newline.
func appendMembers(dst []byte, members []bool) []byte {
	dst = append(dst, `{"members":[`...)
	for i, m := range members {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, m)
	}
	return append(dst, "]}\n"...)
}

// appendContains appends a /contains answer, {"key":K,"member":B} and a
// newline.
func appendContains(dst []byte, key uint64, member bool) []byte {
	dst = append(dst, `{"key":`...)
	dst = strconv.AppendUint(dst, key, 10)
	dst = append(dst, `,"member":`...)
	dst = strconv.AppendBool(dst, member)
	return append(dst, "}\n"...)
}

// appendWrite appends an /insert or /delete answer, {"<field>":B,"key":K}
// and a newline. Both field names, "inserted" and "deleted", sort before
// "key", the order encoding/json gives a map's fields.
func appendWrite(dst []byte, field string, key uint64, changed bool) []byte {
	dst = append(dst, `{"`...)
	dst = append(dst, field...)
	dst = append(dst, `":`...)
	dst = strconv.AppendBool(dst, changed)
	dst = append(dst, `,"key":`...)
	dst = strconv.AppendUint(dst, key, 10)
	return append(dst, "}\n"...)
}

// writeWire sends an encoded JSON answer in one write. A handler that
// writes a short answer and returns gets its Content-Length from net/http;
// a caller whose answer may outgrow net/http's buffer declares the length
// first, or the answer is chunked.
func writeWire(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
