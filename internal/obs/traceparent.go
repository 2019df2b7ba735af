package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync/atomic"
)

// TraceparentHeader is the W3C Trace Context header name carrying the
// trace/span IDs across process boundaries.
const TraceparentHeader = "traceparent"

// RequestIDHeader is the informal companion header: the human-friendly
// request ID stamped on log lines on both sides of a hop.
const RequestIDHeader = "X-Request-ID"

// TraceContext is a position in a distributed trace: which trace, and which
// span within it is the current parent. It round-trips through the W3C
// traceparent header (version 00).
type TraceContext struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
	Sampled bool
}

// NewTraceContext mints a fresh trace with a root span.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
}

// Valid reports whether the context can be propagated: correctly sized,
// hex, and not the all-zero IDs the spec reserves for "absent".
func (tc TraceContext) Valid() bool {
	return validHex(tc.TraceID, 32) && validHex(tc.SpanID, 16)
}

// Header renders the context as a traceparent header value,
// e.g. "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01".
func (tc TraceContext) Header() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	var b strings.Builder
	b.Grow(2 + 1 + 32 + 1 + 16 + 1 + 2)
	b.WriteString("00-")
	b.WriteString(tc.TraceID)
	b.WriteString("-")
	b.WriteString(tc.SpanID)
	b.WriteString("-")
	b.WriteString(flags)
	return b.String()
}

// ParseTraceparent parses a traceparent header value. It accepts any
// version except the invalid "ff", per the spec's forward-compatibility
// rule, but only reads the version-00 fields. A later version may append
// fields, each after a "-", past the flags. ok=false means the header is
// absent or malformed and the caller should start a fresh trace. The IDs
// are copied out of h, so a kept context never pins a long header.
func ParseTraceparent(h string) (TraceContext, bool) {
	// version "-" traceid "-" spanid "-" flags, possibly with future
	// version-specific suffixes after the flags.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	ver := h[:2]
	if !validHexChars(ver) || ver == "ff" {
		return TraceContext{}, false
	}
	if len(h) > 55 && (ver == "00" || h[55] != '-') {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: h[3:35], SpanID: h[36:52]}
	flags := h[53:55]
	if !tc.Valid() || !validHexChars(flags) {
		return TraceContext{}, false
	}
	ids := strings.Clone(h[3:52]) // trace ID, "-", span ID
	tc.TraceID, tc.SpanID = ids[:32], ids[33:]
	tc.Sampled = flags[1]&1 == 1
	return tc, true
}

func validHex(s string, n int) bool {
	if len(s) != n || !validHexChars(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false // all-zero is the spec's "no trace"
}

func validHexChars(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ID minting. One crypto/rand read at process start seeds two 64-bit
// lanes; per-ID cost is an atomic increment plus an integer mix — no
// syscall, no allocation beyond the hex string itself. Collision risk
// matches random 64/128-bit IDs as long as the process base is random.
var (
	idSeq  atomic.Uint64
	idBase = func() [2]uint64 {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degraded but functional: IDs stay unique within the process.
			return [2]uint64{0x9e3779b97f4a7c15, 0xd1b54a32d192ed03}
		}
		return [2]uint64{
			binary.LittleEndian.Uint64(b[0:8]),
			binary.LittleEndian.Uint64(b[8:16]),
		}
	}()
)

// mix64 is the splitmix64 finalizer: a bijective scramble, so distinct
// sequence numbers can never collide within a process.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func newSpanID() string {
	v := mix64(idBase[0] ^ idSeq.Add(1)*0x9e3779b97f4a7c15)
	if v == 0 {
		v = 1 // all-zero span IDs are invalid on the wire
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return hex.EncodeToString(b[:])
}

func newTraceID() string {
	s := idSeq.Add(1) * 0x9e3779b97f4a7c15
	hi := mix64(idBase[0] ^ s)
	lo := mix64(idBase[1] ^ (s + 0x6a09e667f3bcc909))
	if hi == 0 && lo == 0 {
		lo = 1
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	return hex.EncodeToString(b[:])
}

// reqIDCtxKey keys the request ID in a context — separate from the
// recorder, so the ID propagates (into logs and outbound headers) even when
// tracing is off.
type reqIDCtxKey struct{}

// WithRequestID returns a context carrying the request ID. Empty id returns
// ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDCtxKey{}, id)
}

// RequestIDFrom returns the request ID installed in ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDCtxKey{}).(string)
	return id
}
