package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// Response equivalence is asserted modulo volatile fields: values
// that legitimately differ between two catalogs holding the same
// logical state. Object IDs are allocation-order artifacts, epochs are
// commit-count artifacts, and error messages are explicitly
// non-contractual (errors.go: clients switch on codes, the wording may
// change and often embeds an id or epoch number). The stable surface —
// names, structure, payload bytes, error codes — is what the digest
// covers.

// volatileKeys are JSON object keys dropped (at any nesting depth)
// before digesting.
var volatileKeys = map[string]bool{
	"epoch":      true,
	"id":         true,
	"request_id": true,
}

// BodyDigest returns the hex SHA-256 of a response body, normalized
// when the body is JSON: volatile keys are dropped recursively, an
// error envelope keeps only its code, and the result is re-marshaled
// canonically (encoding/json sorts object keys). Non-JSON bodies
// (element payloads, streams) digest their raw bytes.
func BodyDigest(contentType string, body []byte) string {
	if strings.HasPrefix(contentType, "application/json") {
		if norm, ok := normalizeJSON(body); ok {
			body = norm
		}
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// normalizeJSON parses, scrubs and canonically re-marshals a JSON
// body. ok=false means the body did not parse (digest the raw bytes
// instead — a mangled body should still compare equal to an equally
// mangled one and unequal to anything else).
func normalizeJSON(body []byte) ([]byte, bool) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, false
	}
	out, err := json.Marshal(scrub(v))
	if err != nil {
		return nil, false
	}
	return out, true
}

// scrub walks the decoded value dropping volatile keys and reducing
// error envelopes to their stable code.
func scrub(v any) any {
	switch t := v.(type) {
	case map[string]any:
		// {"error":{"code":...,"message":...}} → keep the code only.
		if e, ok := t["error"].(map[string]any); ok && len(t) == 1 {
			if code, ok := e["code"]; ok {
				return map[string]any{"error": map[string]any{"code": code}}
			}
		}
		out := make(map[string]any, len(t))
		for k, val := range t {
			if volatileKeys[k] {
				continue
			}
			out[k] = scrub(val)
		}
		return out
	case []any:
		for i := range t {
			t[i] = scrub(t[i])
		}
		return t
	default:
		return v
	}
}

func TestBodyDigestVolatileFields(t *testing.T) {
	// Two responses for the same logical object from two catalogs: the
	// allocation-order id and the commit-count epoch differ, the stable
	// surface does not.
	live := []byte(`{"name":"clip","id":17,"epoch":40,"elements":[{"id":3,"dur":1.5}]}`)
	replayed := []byte(`{"epoch":7,"elements":[{"dur":1.5,"id":99}],"id":2,"name":"clip"}`)
	if BodyDigest("application/json", live) != BodyDigest("application/json", replayed) {
		t.Error("digests differ on volatile-only changes")
	}
	other := []byte(`{"name":"clip2","id":17,"epoch":40,"elements":[{"id":3,"dur":1.5}]}`)
	if BodyDigest("application/json", live) == BodyDigest("application/json", other) {
		t.Error("digests equal despite a real field change")
	}
}

func TestBodyDigestErrorEnvelope(t *testing.T) {
	// Error messages are non-contractual and often embed an epoch or
	// id; equivalence is the code alone.
	a := []byte(`{"error":{"code":"version_gone","message":"as_of 40 is past the newest seq 39"}}`)
	b := []byte(`{"error":{"code":"version_gone","message":"as_of 7 is past the newest seq 6"}}`)
	if BodyDigest("application/json", a) != BodyDigest("application/json", b) {
		t.Error("error digests differ on message-only changes")
	}
	c := []byte(`{"error":{"code":"not_found","message":"x"}}`)
	if BodyDigest("application/json", a) == BodyDigest("application/json", c) {
		t.Error("different error codes digest equal")
	}
}

func TestBodyDigestNonJSON(t *testing.T) {
	raw := []byte{0x01, 0x02, 0x03}
	if BodyDigest("application/octet-stream", raw) != BodyDigest("application/octet-stream", raw) {
		t.Error("raw digest unstable")
	}
	if BodyDigest("application/octet-stream", raw) == BodyDigest("application/octet-stream", []byte{0x01, 0x02}) {
		t.Error("different raw bodies digest equal")
	}
	// A JSON content type with a mangled body falls back to raw bytes:
	// equal to an equally mangled one, unequal to anything else.
	bad := []byte(`{"truncated":`)
	if BodyDigest("application/json", bad) != BodyDigest("application/json", bad) {
		t.Error("mangled JSON digest unstable")
	}
}
