package obs

import "testing"

// FuzzParseTraceparent feeds ParseTraceparent arbitrary header values. It
// must never panic; an accepted value yields non-zero lowercase-hex IDs of
// 32 and 16 characters; and a version-00 value with flags 00 or 01 renders
// back to itself through Header.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra-future-fields",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"", "00-", "garbage",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", h, tc)
			}
			return
		}
		if !validHex(tc.TraceID, 32) || !validHex(tc.SpanID, 16) {
			t.Fatalf("accepted %q with IDs %q/%q", h, tc.TraceID, tc.SpanID)
		}
		if len(h) == 55 && h[:2] == "00" && (h[53:] == "00" || h[53:] == "01") {
			if got := tc.Header(); got != h {
				t.Fatalf("Header() = %q, parsed from %q", got, h)
			}
		}
	})
}
