package ddp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"argo/internal/graph"
)

// codecRequests and codecResponses are the codec's round-trip cases:
// both wire dtypes, empty and full payloads, and float bit-patterns that
// a text encoding would mangle. They also seed the fuzz targets.
var (
	codecRequests = []*Request{
		{From: 0, Kind: MsgFeatures, IDs: []graph.NodeID{1, 2, 3}},
		{From: 3, Kind: MsgFeatures, IDs: []graph.NodeID{0}},
		{From: 2, Kind: MsgFeatures},
		{From: 0, Kind: MsgFeatures, Dtype: graph.DtypeF16, IDs: []graph.NodeID{11}},
		{From: 1, Kind: MsgFeatures, IDs: []graph.NodeID{-1, 1 << 30}},
	}
	codecResponses = []*Response{
		{Feat: []float32{1, 2, 3, 4}},
		{Feat: []float32{1.5, -0.25, float32(math.Inf(1)), math.Float32frombits(0x7fc00001)}},
		{Feat: []float32{-1, 0, 7}},
		{},
		{Dtype: graph.DtypeF16},
		// fp16 wire: payload values are fp16-exact (as an fp16 store's
		// rows are), so the narrow encoding must still be bit-exact.
		{Dtype: graph.DtypeF16, Feat: []float32{0.5, -2048, 0.0999755859375, 65504, -6.103515625e-05}},
	}
)

func TestWireCodecRoundTrip(t *testing.T) {
	for i, req := range codecRequests {
		got, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got.From != req.From || got.Kind != req.Kind || got.Dtype != req.Dtype || !reflect.DeepEqual(got.IDs, req.IDs) {
			t.Fatalf("request %d round-tripped to %+v", i, got)
		}
	}
	for i, resp := range codecResponses {
		got, err := decodeResponse(encodeResponse(resp, nil))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got.Dtype != resp.Dtype || len(got.Feat) != len(resp.Feat) {
			t.Fatalf("response %d round-tripped to %+v", i, got)
		}
		for j := range resp.Feat {
			if math.Float32bits(got.Feat[j]) != math.Float32bits(resp.Feat[j]) {
				t.Fatalf("response %d feat %d not bit-exact", i, j)
			}
		}
	}
	if _, err := decodeResponse(encodeResponse(nil, fmt.Errorf("shard went away"))); err == nil {
		t.Fatal("remote error response decoded without error")
	}
}

// Malformed frames must error, never panic or over-allocate.
func TestWireCodecRejectsMalformed(t *testing.T) {
	good := encodeRequest(&Request{From: 0, Kind: MsgFeatures, IDs: []graph.NodeID{1, 2}})
	bad := [][]byte{
		nil,
		{},
		good[:5],
		append(append([]byte{}, good...), 0xee), // trailing byte
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0},         // unknown kind
		{2, 0, 0, 0, 0, 0, 0, 0, 0, 0},          // the retired label kind
		{3, 0, 0, 0, 0, 0, 0, 0, 0, 0},          // the retired gradient kind
		{byte(MsgFeatures), 7, 0, 0, 0, 0, 0, 0, 0, 0},             // unknown wire dtype
		{byte(MsgFeatures), 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, // id count beyond frame
	}
	for i, b := range bad {
		if _, err := decodeRequest(b); err == nil {
			t.Fatalf("malformed request %d accepted", i)
		}
	}
	// A frame in the old format still carries a u32 gradient count after
	// its ids; it is refused as trailing bytes, never read as a payload.
	old := binary.LittleEndian.AppendUint32(append([]byte{}, good...), 0)
	if _, err := decodeRequest(old); err == nil || !strings.Contains(err.Error(), "4 trailing bytes") {
		t.Fatalf("old-format request with a gradient count decoded with %v, want a trailing-bytes error", err)
	}
	goodResp := encodeResponse(&Response{Feat: []float32{1}}, nil)
	badResp := [][]byte{
		nil,
		{},
		{2},
		goodResp[:3],
		append(append([]byte{}, goodResp...), 0xee),
		{0, 9, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown wire dtype
		{0, 0, 0xff, 0xff, 0xff, 0x7f}, // feat count beyond frame
	}
	for i, b := range badResp {
		if _, err := decodeResponse(b); err == nil {
			t.Fatalf("malformed response %d accepted", i)
		}
	}
	// An ok response in the old format still carries a u32 label count
	// after its features; it is refused as trailing bytes.
	oldResp := binary.LittleEndian.AppendUint32(append([]byte{}, goodResp...), 0)
	if _, err := decodeResponse(oldResp); err == nil || !strings.Contains(err.Error(), "4 trailing bytes") {
		t.Fatalf("old-format response with a label count decoded with %v, want a trailing-bytes error", err)
	}
}

// FuzzDecodeRequest: decoding never panics, and a frame that decodes
// re-encodes to the same bytes.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range codecRequests {
		f.Add(encodeRequest(req))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeRequest(b)
		if err != nil {
			return
		}
		if got := encodeRequest(req); !bytes.Equal(got, b) {
			t.Fatalf("frame %x decoded to %+v, which re-encodes to %x", b, req, got)
		}
	})
}

// FuzzDecodeResponse: decoding never panics, and an ok frame that
// decodes re-encodes to the same bytes — except that an fp16 NaN comes
// back as the quiet NaN of its sign, the one pattern half.Bits makes.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range codecResponses {
		f.Add(encodeResponse(resp, nil))
	}
	f.Add(encodeResponse(nil, fmt.Errorf("shard went away")))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeResponse(b)
		if err != nil {
			return
		}
		want := append([]byte{}, b...)
		if resp.Dtype == graph.DtypeF16 {
			for i := range resp.Feat {
				v := want[6+2*i:]
				if h := binary.LittleEndian.Uint16(v); h&0x7fff > 0x7c00 {
					binary.LittleEndian.PutUint16(v, h&0x8000|0x7e00)
				}
			}
		}
		if got := encodeResponse(resp, nil); !bytes.Equal(got, want) {
			t.Fatalf("frame %x decoded to %+v, which re-encodes to %x", b, resp, got)
		}
	})
}

// echoHandlers answer features as [id, id+0.5], so transport behaviour
// is observable on its own.
func echoHandlers(n, featDim int) []Handler {
	handlers := make([]Handler, n)
	for r := 0; r < n; r++ {
		handlers[r] = func(req *Request) (*Response, error) {
			if req.Kind != MsgFeatures {
				return nil, fmt.Errorf("handler rejects %s", req.Kind)
			}
			resp := &Response{Feat: make([]float32, len(req.IDs)*featDim)}
			for i, v := range req.IDs {
				resp.Feat[i*featDim] = float32(v)
				resp.Feat[i*featDim+1] = float32(v) + 0.5
			}
			return resp, nil
		}
	}
	return handlers
}

// Both transports must carry the same messages to the same answers.
func TestTransportsAgree(t *testing.T) {
	for _, name := range []string{"inproc", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTransport(name)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.Name() != name {
				t.Fatalf("transport named %q", tr.Name())
			}
			if err := tr.Bind(echoHandlers(3, 2)); err != nil {
				t.Fatal(err)
			}
			resp, err := tr.Call(2, &Request{From: 0, Kind: MsgFeatures, IDs: []graph.NodeID{4, 9}})
			if err != nil {
				t.Fatal(err)
			}
			want := []float32{4, 4.5, 9, 9.5}
			if !reflect.DeepEqual(resp.Feat, want) {
				t.Fatalf("feat %v, want %v", resp.Feat, want)
			}
			one, err := tr.Call(1, &Request{From: 2, Kind: MsgFeatures, IDs: []graph.NodeID{7}})
			if err != nil {
				t.Fatal(err)
			}
			if want := []float32{7, 7.5}; !reflect.DeepEqual(one.Feat, want) {
				t.Fatalf("feat %v, want %v", one.Feat, want)
			}
			// A refused request (here the retired label and gradient kinds)
			// must come back as a Call error on both transports (over TCP it
			// crosses the wire as a status frame).
			for _, kind := range []MsgKind{2, 3} {
				if _, err := tr.Call(0, &Request{From: 1, Kind: kind}); err == nil {
					t.Fatalf("request of kind %d swallowed", kind)
				}
			}
			// The connection must survive an errored request.
			if _, err := tr.Call(0, &Request{From: 1, Kind: MsgFeatures, IDs: []graph.NodeID{1}}); err != nil {
				t.Fatalf("call after handler error: %v", err)
			}
			if _, err := tr.Call(9, &Request{From: 0, Kind: MsgFeatures}); err == nil {
				t.Fatal("out-of-range peer accepted")
			}
		})
	}
}

// Concurrent calls from many goroutines must interleave frame-atomically.
func TestTCPTransportConcurrentCalls(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	if err := tr.Bind(echoHandlers(2, 2)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := graph.NodeID(g*100 + i)
				resp, err := tr.Call(g%2, &Request{From: 1 - g%2, Kind: MsgFeatures, IDs: []graph.NodeID{id}})
				if err != nil {
					errs <- err
					return
				}
				if resp.Feat[0] != float32(id) || resp.Feat[1] != float32(id)+0.5 {
					errs <- fmt.Errorf("goroutine %d got %v for id %d", g, resp.Feat, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTransportLifecycle(t *testing.T) {
	if _, err := NewTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	tr, err := NewTransport("")
	if err != nil || tr.Name() != "inproc" {
		t.Fatalf("default transport: %v (%v)", tr, err)
	}
	for _, name := range []string{"inproc", "tcp"} {
		tr, err := NewTransport(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call(0, &Request{Kind: MsgFeatures}); err == nil {
			t.Fatalf("%s: call before Bind accepted", name)
		}
		if err := tr.Bind(nil); err == nil {
			t.Fatalf("%s: empty Bind accepted", name)
		}
		if err := tr.Bind(echoHandlers(1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Bind(echoHandlers(1, 2)); err == nil {
			t.Fatalf("%s: double Bind accepted", name)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if _, err := tr.Call(0, &Request{Kind: MsgFeatures}); err == nil {
			t.Fatalf("%s: call after Close accepted", name)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%s: second close: %v", name, err)
		}
	}
}
