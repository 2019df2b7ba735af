package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// reqSeq disambiguates IDs minted in the same process; the random prefix
// disambiguates across processes/restarts.
var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

// NewRequestID mints a compact unique request ID, e.g. "a1b2c3d4-000017".
// Handlers echo it back as X-Request-ID and stamp it on every log line and
// trace, so one slow answer can be chased across the service, the ring
// buffer, and the client.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06x", reqPrefix, reqSeq.Add(1))
}

// maxRequestIDLen bounds a caller-supplied request ID.
const maxRequestIDLen = 128

// RequestID returns the caller's X-Request-ID value h when it is 1 to 128
// visible ASCII bytes (0x21–0x7e), and a freshly minted ID otherwise.
// Handlers echo the result, stamp it on log lines and keep it as the ID of
// a retained trace, so an absent, oversized or unprintable caller value
// reaches none of them. Accepting h allocates nothing.
func RequestID(h string) string {
	if len(h) == 0 || len(h) > maxRequestIDLen {
		return NewRequestID()
	}
	for i := 0; i < len(h); i++ {
		if h[i] < 0x21 || h[i] > 0x7e {
			return NewRequestID()
		}
	}
	return h
}
