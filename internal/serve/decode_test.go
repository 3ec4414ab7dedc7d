package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// benchBody is a frame body as bench/ sends it: 768 values (3x16x16) of
// k/256 - 0.5.
func benchBody(tb testing.TB) []byte {
	tb.Helper()
	in := make([]float64, 768)
	for k := range in {
		in[k] = float64(k%256)/256 - 0.5
	}
	body, err := json.Marshal(OffloadRequest{Task: "task-1", Input: in, DeadlineMS: 100})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkDecodeOffload holds DecodeOffload to encoding/json's Decoder on
// one body: it errs iff the Decoder does, and on success every field is
// equal bit for bit, Input's nil-ness included.
func checkDecodeOffload(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := DecodeOffload(body)
	var want OffloadRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: DecodeOffload err %v, encoding/json err %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Task != want.Task || math.Float64bits(got.DeadlineMS) != math.Float64bits(want.DeadlineMS) {
		t.Fatalf("%q: got task %q deadline %v, want %q %v", body, got.Task, got.DeadlineMS, want.Task, want.DeadlineMS)
	}
	if (got.Input == nil) != (want.Input == nil) || len(got.Input) != len(want.Input) {
		t.Fatalf("%q: got input %#v, want %#v", body, got.Input, want.Input)
	}
	for i := range got.Input {
		if math.Float64bits(got.Input[i]) != math.Float64bits(want.Input[i]) {
			t.Fatalf("%q: input[%d] = %v, want %v", body, i, got.Input[i], want.Input[i])
		}
	}
}

// offloadSeeds are the bodies FuzzDecodeOffload starts from: what the
// repo's clients send, and each way a body leaves the canonical shape.
func offloadSeeds(tb testing.TB) [][]byte {
	marshal := func(req OffloadRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	var bits []float64
	for _, u := range []uint64{1, 0x000fffffffffffff, 0x0010000000000000, 0x7fefffffffffffff,
		0x3fb999999999999a, 0x8000000000000000, 0xc00921fb54442d18, 0x3e7ad7f29abcaf48} {
		bits = append(bits, math.Float64frombits(u))
	}
	readme := make([]string, 192)
	for i := range readme {
		readme[i] = "0.5"
	}
	ci := make([]string, 192)
	for i := range ci {
		ci[i] = fmt.Sprint(math.Round(float64(i%13)/13*1e6) / 1e6)
	}
	seeds := [][]byte{
		benchBody(tb),
		marshal(OffloadRequest{Task: "t", Input: bits, DeadlineMS: -1}),
		marshal(OffloadRequest{Task: "cam-7"}),
		marshal(OffloadRequest{Task: "task-1", Input: []float64{}}),
		[]byte(`{"task":"cam-7"}`),
		[]byte(`{"task":"cam-7","input":[` + strings.Join(readme, ",") + `]}`),
		[]byte(`{"task":"task-1","input":[` + strings.Join(ci, ",") + `]}`),
		[]byte(`{"task":"a","input":[1e-07,1e+21,1E+21,1e21,-2.5E-3,0.0]}`),
		[]byte(`{"task":"a","input":[-0,-0.0,-0e0],"deadline_ms":-0}`),
		[]byte(`{"task":"a","input":[]}`),
		[]byte(` {"input" : [ 1 , 2 ] ,` + "\n\t\r" + `"task":"cam-7", "deadline_ms": 12.5 } `),
		[]byte(`{"task":"é→🎥"}`),
		[]byte(`{"task":"task-1"}`),
		[]byte(`{"task":"a\"b"}`),
		[]byte("{\"task\":\"a\xffb\"}"),
		[]byte("{\"task\":\"a\tb\"}"),
		[]byte(`{"TASK":"a"}`),
		[]byte(`{"Input":[1]}`),
		[]byte(`{"task":"a","task":"b"}`),
		[]byte(`{"input":[1],"input":[2,3]}`),
		[]byte(`{"task":"a","meta":{"x":[1,{"y":null}]}}`),
		[]byte(`{"task":null,"input":null,"deadline_ms":null}`),
		[]byte(`{"task":"a","input":[1e400]}`),
		[]byte(`{"deadline_ms":-1e400}`),
		[]byte(`{"input":[01]}`),
		[]byte(`{"input":[1.]}`),
		[]byte(`{"input":[.5]}`),
		[]byte(`{"input":[+1]}`),
		[]byte(`{"input":[1e]}`),
		[]byte(`{"input":[1,]}`),
		[]byte(`{"input":[1 2]}`),
		[]byte(`{"input":[[1]]}`),
		[]byte(`{"input":["1"]}`),
		[]byte(`{"task":"a",}`),
		[]byte(`{"task":"a","input":[1,2`),
		[]byte(`{"task":"a"} x`),
		[]byte(`{"task":"a"}{"task":"b"}`),
		[]byte(`{}`),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(`7`),
		[]byte(``),
		[]byte(" \n"),
	}
	return seeds
}

// FuzzDecodeOffload is DecodeOffload against encoding/json's Decoder:
// the same verdict on every body, the same bits on every success, and
// no panic.
func FuzzDecodeOffload(f *testing.F) {
	for _, s := range offloadSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeOffload(t, body)
	})
}

// TestDecodeOffloadScansWhatClientsSend: a marshalled OffloadRequest,
// whatever its values, takes the scanner rather than the fallback, and
// the scanner agrees with encoding/json on it.
func TestDecodeOffloadScansWhatClientsSend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		req := OffloadRequest{Task: fmt.Sprintf("task-%d", rng.Intn(100))}
		if rng.Intn(4) > 0 {
			req.Input = make([]float64, rng.Intn(50))
			for i := range req.Input {
				switch rng.Intn(3) {
				case 0:
					req.Input[i] = float64(rng.Intn(256))/256 - 0.5
				case 1:
					req.Input[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
				default:
					v := math.Float64frombits(rng.Uint64())
					if math.IsNaN(v) || math.IsInf(v, 0) {
						v = 0
					}
					req.Input[i] = v
				}
			}
		}
		if rng.Intn(2) == 0 {
			req.DeadlineMS = float64(rng.Intn(400) - 100)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scanOffload(body); !ok {
			t.Fatalf("canonical body fell back to encoding/json: %s", body)
		}
		checkDecodeOffload(t, body)
	}
}

// TestDecodeOffloadAllocs pins the scanner's cost: a 768-value frame
// allocates the input slice and the task string, nothing else.
func TestDecodeOffloadAllocs(t *testing.T) {
	body := benchBody(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeOffload(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodeOffload allocates %.0f times per body, want ≤ 2", allocs)
	}
}

// decodeSink keeps the benchmarked call from being optimized away.
var decodeSink OffloadRequest

func BenchmarkDecodeOffload(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := DecodeOffload(body)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = req
	}
}
