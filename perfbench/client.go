package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the server, written and
// read by hand so the client spends as little of the shared CPUs as it can:
// the request is formatted into a reused buffer and the response body is
// read into another. One goroutine owns a conn.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *conn) redial() error {
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", c.addr, err)
	}
	c.nc = nc
	c.br = bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// requestTimeout bounds one request; a request that takes longer counts as
// a transport failure instead of hanging the run.
const requestTimeout = 10 * time.Second

// do sends one request and reads the response. It returns the status and
// the body, which stays valid until the next call. A transport error drops
// the connection; the next call dials a fresh one.
func (c *conn) do(method string, target, body []byte) (int, []byte, error) {
	if c.nc == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, target...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: lcds\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	if len(body) > 0 {
		c.req = append(c.req, "\r\nContent-Type: application/json"...)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)

	c.nc.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := c.nc.Write(c.req); err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, target, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, target, err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, target, err)
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

var errBadAnswer = errors.New("malformed answer")

// parseFlag reads the JSON boolean that follows `"field":` in a one-object
// response such as {"key":7,"member":true}.
func parseFlag(body []byte, field string) (bool, error) {
	pat := `"` + field + `":`
	i := bytes.Index(body, []byte(pat))
	if i < 0 {
		return false, fmt.Errorf("%w: no %q in %.80q", errBadAnswer, field, body)
	}
	rest := bytes.TrimLeft(body[i+len(pat):], " ")
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		return true, nil
	case bytes.HasPrefix(rest, []byte("false")):
		return false, nil
	}
	return false, fmt.Errorf("%w: %q is not a boolean in %.80q", errBadAnswer, field, body)
}

// parseMembers decodes a /batch response, {"members":[true,false,...]},
// into out and returns how many answers it held.
func parseMembers(body []byte, out []bool) (int, error) {
	const head = `{"members":[`
	b := bytes.TrimSpace(body)
	if !bytes.HasPrefix(b, []byte(head)) || !bytes.HasSuffix(b, []byte("]}")) {
		return 0, fmt.Errorf("%w: batch body %.80q", errBadAnswer, body)
	}
	b = b[len(head) : len(b)-2]
	n := 0
	for len(b) > 0 {
		if n == len(out) {
			return n, fmt.Errorf("%w: more than %d answers", errBadAnswer, len(out))
		}
		switch {
		case bytes.HasPrefix(b, []byte("true")):
			out[n] = true
			b = b[4:]
		case bytes.HasPrefix(b, []byte("false")):
			out[n] = false
			b = b[5:]
		default:
			return n, fmt.Errorf("%w: batch answer %d: %.20q", errBadAnswer, n, b)
		}
		n++
		if len(b) == 0 {
			break
		}
		if b[0] != ',' || len(b) == 1 {
			return n, fmt.Errorf("%w: batch answer %d not followed by a comma and another answer", errBadAnswer, n)
		}
		b = b[1:]
	}
	return n, nil
}

// appendBatchBody formats keys as a /batch request body.
func appendBatchBody(dst []byte, keys []uint64) []byte {
	dst = append(dst, `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, k, 10)
	}
	return append(dst, "]}"...)
}

// appendKeyTarget formats "<path>?key=<k>".
func appendKeyTarget(dst []byte, path string, key uint64) []byte {
	dst = append(dst, path...)
	dst = append(dst, "?key="...)
	return strconv.AppendUint(dst, key, 10)
}

// drain discards the rest of r; used to empty a child's stdout pipe.
func drain(r io.Reader) { io.Copy(io.Discard, r) }
