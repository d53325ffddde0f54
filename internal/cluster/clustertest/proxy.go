// Package clustertest is the fault-injection harness behind the
// cluster tier's tests: an in-process multi-worker fixture (real
// serve.Engine + httpserve workers on loopback listeners, a real
// cluster.Router in front) with a fault-injecting TCP proxy planted
// between the router and each worker. The proxy degrades one shard at
// a time the way production shards degrade — added latency, a black
// hole that accepts and never answers, connection resets that kill
// requests mid-flight, a slow-loris trickle — so the router's
// affinity, hedging, ejection and rollout-rollback behaviour can be
// exercised end to end, under -race, without leaving the process.
//
// Concurrency contract: Proxy and Cluster are safe for concurrent use
// from test goroutines; SetMode applies to connections accepted after
// the call (and Reset additionally tears down the connections already
// in flight, which is the kill-a-shard-mid-load lever).
package clustertest

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Mode selects how the proxy treats connections.
type Mode int

const (
	// Pass relays bytes both ways untouched.
	Pass Mode = iota
	// Delay holds each new connection for the configured delay before
	// relaying — an injected stall, the hedge trigger.
	Delay
	// Blackhole accepts connections and never answers; the client's
	// timeout is the only way out. Health probes time out too, so the
	// shard is ejected.
	Blackhole
	// Reset closes each new connection immediately with RST, and
	// SetMode(Reset) also resets every connection currently in flight —
	// the shard dies mid-load.
	Reset
	// SlowLoris relays the request but trickles the response back one
	// byte at a time.
	SlowLoris
	// Fail500 answers each request itself, never reaching the worker: a
	// POST gets a JSON 500, as from a worker whose classify fails the
	// same way every time, and anything else a bare 200, so readiness
	// probes pass and the shard stays in the ring.
	Fail500
)

// Proxy is a TCP fault injector between the router and one worker.
// Create with NewProxy, point the router at Addr, and flip failure
// modes with SetMode while traffic flows.
type Proxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	mode    Mode
	delay   time.Duration
	trickle time.Duration
	conns   map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup
}

// NewProxy starts a proxy on a fresh loopback port relaying to target
// (a host:port). Close releases it.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:      ln,
		target:  target,
		delay:   150 * time.Millisecond,
		trickle: 20 * time.Millisecond,
		conns:   map[net.Conn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetMode switches the failure mode for connections accepted from now
// on. Reset also tears down every connection currently relaying, with
// SO_LINGER zero so clients see a hard RST, not a graceful close.
func (p *Proxy) SetMode(m Mode) {
	p.mu.Lock()
	p.mode = m
	var kill []net.Conn
	if m == Reset {
		for c := range p.conns {
			kill = append(kill, c)
		}
	}
	p.mu.Unlock()
	for _, c := range kill {
		abort(c)
	}
}

// SetDelay configures the Delay mode's stall (default 150ms).
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// Mode returns the current failure mode.
func (p *Proxy) Mode() Mode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode
}

// Close stops accepting, tears down in-flight connections and waits
// for the relay goroutines.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var kill []net.Conn
	for c := range p.conns {
		kill = append(kill, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range kill {
		c.Close()
	}
	p.wg.Wait()
}

// abort closes c with SO_LINGER zero so the peer sees RST.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// track registers a live connection; reports false once closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		mode, delay := p.mode, p.delay
		closed := p.closed
		p.mu.Unlock()
		if closed {
			client.Close()
			return
		}
		if mode == Reset {
			abort(client)
			continue
		}
		if !p.track(client) {
			client.Close()
			return
		}
		p.wg.Add(1)
		go p.relay(client, mode, delay)
	}
}

// relay serves one accepted connection under the mode sampled at
// accept time.
func (p *Proxy) relay(client net.Conn, mode Mode, delay time.Duration) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()

	if mode == Blackhole {
		// Swallow the request and never answer; unblocked by the peer
		// closing (timeout/cancel) or by Reset/Close tearing us down.
		_, _ = io.Copy(io.Discard, client)
		return
	}
	if mode == Fail500 {
		fail500(client)
		return
	}
	if mode == Delay {
		// Stall before even dialing the worker: the whole exchange,
		// connect included, sits behind the injected latency.
		timer := time.NewTimer(delay)
		defer timer.Stop()
		<-timer.C
	}

	backend, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()

	done := make(chan struct{}, 2)
	go func() {
		_, _ = io.Copy(backend, client)
		// Half-close toward the worker so it sees EOF on the request
		// stream even while the response is still trickling back.
		if tc, ok := backend.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		if mode == SlowLoris {
			p.trickleCopy(client, backend)
		} else {
			_, _ = io.Copy(client, backend)
		}
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

// fail500 reads one request from client and answers it as Fail500
// describes.
func fail500(client net.Conn) {
	req, err := http.ReadRequest(bufio.NewReader(client))
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, req.Body)
	reply := "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
	if req.Method == http.MethodPost {
		const body = `{"error":"injected fault"}`
		reply = "HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n" +
			"Content-Length: " + strconv.Itoa(len(body)) + "\r\nConnection: close\r\n\r\n" + body
	}
	_, _ = io.WriteString(client, reply)
}

// trickleCopy relays backend→client one byte per tick.
func (p *Proxy) trickleCopy(client, backend net.Conn) {
	p.mu.Lock()
	tick := p.trickle
	p.mu.Unlock()
	buf := make([]byte, 1)
	for {
		n, err := backend.Read(buf)
		if n > 0 {
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
			time.Sleep(tick)
		}
		if err != nil {
			return
		}
	}
}
