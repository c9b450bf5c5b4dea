package faultfs

// Network fault layer: the replication feed is HTTP, so its failure
// modes — dropped connections, partitions, slow peers, a stream cut
// mid-frame — are injected at the http.RoundTripper seam rather than
// the file-system one. The same deterministic Injector schedules
// both, so a test can say "cut the 2nd feed connection after half a
// read" and get exactly that, every run.
//
// Ops:
//
//	"net.request"  counted once per outgoing request. An Err rule
//	               drops the connection attempt (Times: -1 from Nth
//	               models a partition); a Delay-only rule models a
//	               slow link.
//	"net.read"     counted once per response-body Read. An Err rule
//	               cuts the stream mid-flight; with Short, half the
//	               bytes that Read received are delivered first and the
//	               body then ends — a torn feed frame, whatever size
//	               the reader asks for. Delay-only models a slow reader.

import (
	"io"
	"net/http"
)

// Transport wraps an http.RoundTripper with deterministic network
// fault injection on requests and response-body reads.
type Transport struct {
	inner http.RoundTripper
	inj   *Injector
}

// WrapTransport builds a fault-injecting transport over inner (nil
// means http.DefaultTransport).
func WrapTransport(inner http.RoundTripper, inj *Injector) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, inj: inj}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err, _ := t.inj.check("net.request"); err != nil {
		return nil, err
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &faultBody{inner: resp.Body, inj: t.inj}
	return resp, nil
}

// faultBody intercepts streaming response reads so a long-lived feed
// connection can be cut (or slowed) at a precise point mid-stream.
type faultBody struct {
	inner io.ReadCloser
	inj   *Injector
	cut   bool
}

// Read implements io.Reader. A Short cut reads what the peer has sent
// and delivers the first half of it before the error surfaces on the
// following Read — the receiver sees a torn final frame, exactly like
// a peer crashing mid-send, whether it reads frame by frame or through
// a buffer that would otherwise take in whole frames.
func (b *faultBody) Read(p []byte) (int, error) {
	if b.cut {
		return 0, ErrInjected
	}
	err, short := b.inj.check("net.read")
	if err == nil {
		return b.inner.Read(p)
	}
	b.cut = true
	if short {
		n, _ := b.inner.Read(p) // the injected cut replaces its error
		b.inner.Close()
		if n /= 2; n > 0 {
			return n, nil // the cut error surfaces on the next Read
		}
		return 0, err
	}
	b.inner.Close()
	return 0, err
}

// Close implements io.Closer.
func (b *faultBody) Close() error { return b.inner.Close() }
