package ddp

import (
	"encoding/binary"
	"fmt"
	"math"

	"argo/internal/graph"
	"argo/internal/tensor/half"
)

// MsgKind discriminates the batched exchange messages.
type MsgKind uint8

// MsgFeatures requests the feature rows of a batch of owned nodes. It
// is the only kind: labels never cross the exchange.
const MsgFeatures MsgKind = 1

func (k MsgKind) String() string {
	if k == MsgFeatures {
		return "features"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Request is one batched exchange message: everything replica From needs
// from one peer for one gather call. Batching requests per
// (peer, iteration) — instead of one lookup per row — is what makes the
// exchange viable across address spaces: the message count per epoch
// drops from O(remote rows) to O(peers · iterations).
type Request struct {
	From int
	Kind MsgKind
	// Dtype selects the wire encoding of the Feat values the responder
	// sends back. Negotiated once from the store dtype (DtypeF16 halves
	// them); fp16 payload values must already be fp16-exact, as an fp16
	// store's rows are, so the encoding is lossless and transports stay
	// bit-identical.
	Dtype graph.FeatDtype
	IDs   []graph.NodeID
}

// Response answers one Request.
type Response struct {
	// Dtype is the wire encoding of Feat (echoed from the request).
	Dtype graph.FeatDtype
	// Feat holds len(IDs)·featDim float32 feature values, row-major.
	Feat []float32
}

// wireSize returns the bytes req occupies on the wire — the length
// prefix plus the encodeRequest payload. It is pure arithmetic (no
// encode), and computed identically whichever transport carries the
// message, so wire-byte accounting is transport-invariant;
// TestWireSizeMatchesEncoding pins it to the codec.
func (req *Request) wireSize() int64 {
	return 4 + 10 + 4*int64(len(req.IDs))
}

// wireSize returns the bytes resp occupies on the wire (length prefix
// plus the ok-status encodeResponse payload).
func (resp *Response) wireSize() int64 {
	return 4 + 6 + int64(resp.Dtype.Size())*int64(len(resp.Feat))
}

// Handler answers batched requests on behalf of one replica. Handlers
// must be safe for concurrent use: a peer's sampling workers issue
// fetches while its trainer computes.
type Handler func(req *Request) (*Response, error)

// Transport moves batched exchange messages between replicas. The
// in-process implementation is a direct function call; the TCP
// implementation frames the same messages over loopback sockets,
// proving the seam works across address spaces. A transport is bound
// once (by the exchange, which supplies one handler per replica) and
// then carries concurrent Calls from any replica.
type Transport interface {
	// Bind installs the per-replica handlers. Called exactly once,
	// before any Call.
	Bind(handlers []Handler) error
	// Call delivers req to replica `to` and returns its response.
	Call(to int, req *Request) (*Response, error)
	// Name identifies the transport ("inproc", "tcp").
	Name() string
	// Close releases the transport's resources. Calls after Close fail.
	Close() error
}

// NewTransport builds a registered transport by name. The empty name
// defaults to the in-process transport.
func NewTransport(name string) (Transport, error) {
	switch name {
	case "", "inproc":
		return NewInprocTransport(), nil
	case "tcp":
		return NewTCPTransport(), nil
	}
	return nil, fmt.Errorf("ddp: unknown transport %q (inproc, tcp)", name)
}

// InprocTransport delivers batched messages by direct function call —
// the transport for replicas sharing one address space. The batching
// still happens (message counts match the TCP transport exactly), so
// in-process runs measure the same traffic a multi-node run would put
// on the wire.
type InprocTransport struct {
	handlers []Handler
	closed   bool
}

// NewInprocTransport returns an unbound in-process transport.
func NewInprocTransport() *InprocTransport { return &InprocTransport{} }

// Bind implements Transport.
func (t *InprocTransport) Bind(handlers []Handler) error {
	if t.handlers != nil {
		return fmt.Errorf("ddp: inproc transport already bound")
	}
	if len(handlers) == 0 {
		return fmt.Errorf("ddp: inproc transport bound with no handlers")
	}
	t.handlers = handlers
	return nil
}

// Call implements Transport.
func (t *InprocTransport) Call(to int, req *Request) (*Response, error) {
	if t.closed {
		return nil, fmt.Errorf("ddp: inproc transport is closed")
	}
	if to < 0 || to >= len(t.handlers) {
		return nil, fmt.Errorf("ddp: call to replica %d of %d", to, len(t.handlers))
	}
	return t.handlers[to](req)
}

// Name implements Transport.
func (t *InprocTransport) Name() string { return "inproc" }

// Close implements Transport.
func (t *InprocTransport) Close() error {
	t.closed = true
	return nil
}

// Wire format (shared by every cross-address-space transport): a frame
// is a little-endian u32 payload length followed by the payload. The
// request payload is
//
//	u8 kind | u8 dtype | u32 from | u32 len(ids) | ids as i32
//
// and the response payload is
//
//	u8 status (0 ok, 1 error) |
//	  ok:    u8 dtype | u32 len(feat) | feat (f32 or fp16 by dtype)
//	  error: utf-8 message (the rest of the frame)
//
// The dtype byte makes every frame self-describing, so a decoder never
// needs out-of-band negotiation state to size the float payload. Counts
// always name logical float32 values; dtype only selects their byte
// encoding. maxFrame bounds a frame so a corrupt length prefix cannot
// drive an allocation by itself.
const maxFrame = 1 << 30

// appendFloats appends xs in the dtype's wire encoding. fp16 encoding
// rounds to nearest-even; callers guarantee fp16-exact values (features
// come from an fp16 store), so on this code's paths the round is an
// identity and the wire is lossless.
func appendFloats(b []byte, dt graph.FeatDtype, xs []float32) []byte {
	if dt == graph.DtypeF16 {
		off := len(b)
		b = append(b, make([]byte, 2*len(xs))...)
		half.EncodeBytes(b[off:], xs)
		return b
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// decodeFloats widens n dtype-encoded values from b. Mirroring the f32
// path, fp16 bit patterns are decoded as-is (non-finite included) —
// payload hygiene is the store and exchange layers' job, not the codec's.
func decodeFloats(b []byte, dt graph.FeatDtype, n int) []float32 {
	out := make([]float32, n)
	if dt == graph.DtypeF16 {
		half.DecodeBytes(out, b[:2*n])
		return out
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// wireDtype validates a frame's dtype byte.
func wireDtype(b byte) (graph.FeatDtype, error) {
	dt := graph.FeatDtype(b)
	if dt != graph.DtypeF32 && dt != graph.DtypeF16 {
		return 0, fmt.Errorf("ddp: unknown wire dtype %d", b)
	}
	return dt, nil
}

// encodeRequest serialises req into a frame payload (without the length
// prefix).
func encodeRequest(req *Request) []byte {
	b := make([]byte, 0, 10+4*len(req.IDs))
	b = append(b, byte(req.Kind), byte(req.Dtype))
	b = binary.LittleEndian.AppendUint32(b, uint32(req.From))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.IDs)))
	for _, v := range req.IDs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// decodeRequest parses a frame payload produced by encodeRequest.
func decodeRequest(b []byte) (*Request, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("ddp: request frame of %d bytes", len(b))
	}
	req := &Request{Kind: MsgKind(b[0]), From: int(binary.LittleEndian.Uint32(b[2:6]))}
	if req.Kind != MsgFeatures {
		return nil, fmt.Errorf("ddp: unknown message kind %d", b[0])
	}
	var err error
	if req.Dtype, err = wireDtype(b[1]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(b[6:10]))
	off := 10
	if n < 0 || n > (len(b)-off)/4 {
		return nil, fmt.Errorf("ddp: request claims %d ids beyond its frame", n)
	}
	if n > 0 {
		req.IDs = make([]graph.NodeID, n)
		for i := range req.IDs {
			req.IDs[i] = graph.NodeID(binary.LittleEndian.Uint32(b[off : off+4]))
			off += 4
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("ddp: %d trailing bytes in request frame", len(b)-off)
	}
	return req, nil
}

// encodeResponse serialises resp (or an error) into a frame payload.
func encodeResponse(resp *Response, herr error) []byte {
	if herr != nil {
		msg := herr.Error()
		b := make([]byte, 0, 1+len(msg))
		b = append(b, 1)
		return append(b, msg...)
	}
	elem := resp.Dtype.Size()
	b := make([]byte, 0, 6+elem*len(resp.Feat))
	b = append(b, 0, byte(resp.Dtype))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Feat)))
	return appendFloats(b, resp.Dtype, resp.Feat)
}

// decodeResponse parses a frame payload produced by encodeResponse. A
// remote handler error comes back as a non-nil error.
func decodeResponse(b []byte) (*Response, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("ddp: empty response frame")
	}
	if b[0] == 1 {
		return nil, fmt.Errorf("ddp: remote handler: %s", string(b[1:]))
	}
	if b[0] != 0 {
		return nil, fmt.Errorf("ddp: unknown response status %d", b[0])
	}
	if len(b) < 6 {
		return nil, fmt.Errorf("ddp: response frame of %d bytes", len(b))
	}
	resp := &Response{}
	var err error
	if resp.Dtype, err = wireDtype(b[1]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(b[2:6]))
	off := 6
	elem := resp.Dtype.Size()
	if n < 0 || n > (len(b)-off)/elem {
		return nil, fmt.Errorf("ddp: response claims %d feature values beyond its frame", n)
	}
	if n > 0 {
		resp.Feat = decodeFloats(b[off:], resp.Dtype, n)
		off += elem * n
	}
	if off != len(b) {
		return nil, fmt.Errorf("ddp: %d trailing bytes in response frame", len(b)-off)
	}
	return resp, nil
}
