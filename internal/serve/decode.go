package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MaxOffloadBody bounds a POST /v1/offload body on both daemons: a
// full-quality input tensor serialized as JSON numbers (e.g. 3x32x32
// floats) comfortably fits; anything bigger is abuse.
const MaxOffloadBody = 1 << 20

// DecodeOffload decodes a POST /v1/offload body. Its answer is
// json.NewDecoder(bytes.NewReader(body)).Decode's on every input: the
// shape json.Marshal(OffloadRequest) emits — one object whose keys are
// exactly "task", "input" and "deadline_ms", each at most once, a task
// string without escapes, an array of numbers — is read in one pass by
// a scanner that parses each number with the strconv.ParseFloat call
// encoding/json makes, and any other body goes whole to encoding/json.
// The result shares no memory with body.
func DecodeOffload(body []byte) (OffloadRequest, error) {
	if req, ok := scanOffload(body); ok {
		return req, nil
	}
	var req OffloadRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// bodyPool recycles the buffers handleOffload reads bodies into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// scanOffload reads the canonical body shape; false means the body is
// something else, and nothing about its validity. Like encoding/json's
// Decoder it stops at the object's closing brace.
func scanOffload(b []byte) (OffloadRequest, bool) {
	var req OffloadRequest
	s := scanner{b: b}
	if !s.consume('{') {
		return req, false
	}
	if s.consume('}') {
		return req, true
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return req, false
		}
		var bit uint8
		switch string(key) {
		case "task":
			bit = 1
			var v []byte
			v, ok = s.str()
			req.Task = string(v)
		case "input":
			bit = 2
			req.Input, ok = s.array()
		case "deadline_ms":
			bit = 4
			req.DeadlineMS, ok = s.number()
		default:
			return req, false
		}
		if !ok || seen&bit != 0 {
			return req, false
		}
		seen |= bit
		if s.consume('}') {
			return req, true
		}
		if !s.consume(',') {
			return req, false
		}
	}
}

// scanner is a cursor over a JSON body.
type scanner struct {
	b []byte
	i int
}

// skip advances over JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then c; false if the next byte is not c.
func (s *scanner) consume(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string whose bytes encoding/json returns unchanged: no
// escape, no control byte, valid UTF-8. It aliases the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			tok := s.b[start:s.i]
			s.i++
			return tok, utf8.Valid(tok)
		case c == '\\' || c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// array reads an array of numbers into a slice allocated once: every
// value sits before the first ']' and there is one more than the commas.
// An empty array is non-nil, as encoding/json makes it.
func (s *scanner) array() ([]float64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	rest := s.b[s.i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return nil, false
	}
	if s.consume(']') {
		return []float64{}, true
	}
	out := make([]float64, bytes.Count(rest[:end], []byte{','})+1)
	for k := range out {
		if k > 0 && !s.consume(',') {
			return nil, false
		}
		v, ok := s.number()
		if !ok {
			return nil, false
		}
		out[k] = v
	}
	return out, s.consume(']')
}

// number reads one token of JSON's number grammar and parses it as
// encoding/json does; false on any other token or an out-of-range value.
func (s *scanner) number() (float64, bool) {
	s.skip()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	s.i = i
	return v, err == nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
