package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// point is one POST /v1/solve workload point.
type point struct {
	Arch, N, Hosts int
	X              float64
	NonLocal       bool
}

// body is the request body: the fields of the service's solveRequest,
// with X formatted so it parses back to the same float64.
func (p point) body() []byte {
	return []byte(fmt.Sprintf(`{"arch":%d,"conversations":%d,"hosts":%d,"server_compute_us":%s,"non_local":%t}`,
		p.Arch, p.N, p.Hosts, strconv.FormatFloat(p.X, 'g', -1, 64), p.NonLocal))
}

// expected is the response body ipcd must serve for p: an in-process
// core.System.Analyze of the point, encoded the way the service encodes
// a solve.
func (p point) expected() ([]byte, error) {
	pred, err := core.New(core.Arch(p.Arch), core.WithHosts(p.Hosts)).Analyze(core.Workload{
		Conversations: p.N, ServerComputeUS: p.X, NonLocal: p.NonLocal})
	if err != nil {
		return nil, err
	}
	return service.MarshalDeterministic(map[string]any{
		"arch":              p.Arch,
		"conversations":     p.N,
		"hosts":             p.Hosts,
		"non_local":         p.NonLocal,
		"server_compute_us": p.X,
		"offered_load":      pred.OfferedLoad,
		"round_trip_us":     pred.RoundTripUS,
		"states":            pred.States,
		"throughput_rps":    pred.Throughput,
	}), nil
}

// pointSpace draws distinct solve points in blocks of 64. For each of
// arch 1-4 and 1-2 hosts a block holds eight points: two conversations
// once non-local, one conversation once non-local, and the rest local
// with one conversation, except that arch I also carries one local
// two-conversation point. One point in four is non-local. Local
// two-conversation nets of arch II-IV are left to the paper workload:
// they take 17-25ms to solve on a 2-CPU host and twice that when the
// host is contended, which puts the p99 at every offered rate past the
// daemon's 50ms objective and leaves max_rps undefined. Order is seeded
// and every point draws a fresh continuous server compute time, so no
// two draws share a cache key and every run solves the same mix of
// nets. With at most two conversations every solve stays on the dense
// direct path.
type pointSpace struct {
	rng   *rand.Rand
	seen  map[point]bool
	block []point
}

// cellFor lists the conversations and locality of a block's eight
// points for one architecture.
func cellFor(arch int) []point {
	last := point{N: 1}
	if arch == 1 {
		last = point{N: 2}
	}
	return []point{{N: 1}, {N: 1}, {N: 1}, {N: 1}, {N: 1},
		{N: 1, NonLocal: true}, {N: 2, NonLocal: true}, last}
}

const maxComputeUS = 20000

func newPointSpace(seed uint64) *pointSpace {
	return &pointSpace{rng: rand.New(rand.NewPCG(seed, 0x1987)), seen: map[point]bool{}}
}

func (s *pointSpace) next() point {
	for {
		if len(s.block) == 0 {
			for arch := 1; arch <= 4; arch++ {
				for hosts := 1; hosts <= 2; hosts++ {
					for _, c := range cellFor(arch) {
						c.Arch, c.Hosts = arch, hosts
						s.block = append(s.block, c)
					}
				}
			}
			s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		}
		p := s.block[0]
		s.block = s.block[1:]
		p.X = s.rng.Float64() * maxComputeUS
		if !s.seen[p] {
			s.seen[p] = true
			return p
		}
		s.block = append(s.block, p)
	}
}

func (s *pointSpace) take(n int) []point {
	out := make([]point, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// poissonSchedule returns the due offsets of the first n arrivals of an
// open-loop Poisson process at rate per second.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// client sends solve requests over a fixed number of keep-alive
// connections, each a blocking socket owned by one sender, and fetches
// other paths through net/http on a connection of its own.
type client struct {
	base  string
	addr  string     // the server's IPv4 host:port
	conns []*rawConn // one per sender, dialled on first use
	hc    *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		DialContext:        (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}
	return &client{base: base, addr: strings.TrimPrefix(base, "http://"), conns: make([]*rawConn, conns),
		hc: &http.Client{Transport: tr, Timeout: 3 * time.Minute}}
}

// conn returns sender w's connection, dialling it if it has none.
func (c *client) conn(w int) (*rawConn, error) {
	if c.conns[w] == nil {
		rc, err := dialRaw(c.addr)
		if err != nil {
			return nil, err
		}
		c.conns[w] = rc
	}
	return c.conns[w], nil
}

// drop closes sender w's connection; the next request dials afresh.
func (c *client) drop(w int) {
	if c.conns[w] != nil {
		c.conns[w].close()
		c.conns[w] = nil
	}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	for w := range c.conns {
		c.drop(w)
	}
}

// seqHeader carries the benchmark's request number to an in-process
// server, so a traced handler span can name the round trip it serves.
const seqHeader = "X-Perfbench-Seq"

// rawConn is one HTTP/1.1 keep-alive connection on a blocking socket.
// Its sender writes each request and reads the response with plain
// system calls on its own thread, so no goroutine hand-off or poller
// wake-up lies between the wire and the timestamps around a request.
type rawConn struct {
	fd   int
	host string
	br   *bufio.Reader
	buf  []byte
	dead bool // the server asked to close the connection
}

func dialRaw(addr string) (*rawConn, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().Is4() {
		return nil, fmt.Errorf("solve address %q is not an IPv4 host:port", addr)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	rc := &rawConn{fd: fd, host: addr}
	rc.br = bufio.NewReaderSize(rc, 16<<10)
	return rc, nil
}

func (rc *rawConn) close() { syscall.Close(rc.fd) }

// Read lets the response parser read the socket.
func (rc *rawConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(rc.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err
		case n == 0 && len(p) > 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (rc *rawConn) write(b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(rc.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// solve posts one body to /v1/solve and returns the status and the
// response bytes. seq, when not negative, is sent in seqHeader.
func (rc *rawConn) solve(body []byte, seq int) (int, []byte, error) {
	b := append(rc.buf[:0], "POST /v1/solve HTTP/1.1\r\nHost: "...)
	b = append(b, rc.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if seq >= 0 {
		b = append(b, "\r\n"+seqHeader+": "...)
		b = strconv.AppendInt(b, int64(seq), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	rc.buf = b
	if err := rc.write(b); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rc.dead = resp.Close
	return resp.StatusCode, out, err
}

// get fetches a path and returns its body, failing on any non-200.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, nil
}

// shot is one timed request: when it was due, when it could go (its due
// time, or when a connection came free if that was later), when its
// sender wrote it and when its response was read, all as offsets from
// the phase start.
type shot struct {
	Due, Dispatched, Sent, Done time.Duration
	Err                         error
}

// Latency is the time from due to done: the wait a stalled server
// imposes on later requests is charged to the server, not hidden.
func (s shot) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent: the time from
// when the request could go to when its sender wrote it. Waiting for a
// busy connection is the server's time, not the generator's.
func (s shot) Late() time.Duration { return s.Sent - s.Dispatched }

// phase is the outcome of one open-loop or closed-loop phase.
type phase struct {
	Shots []shot
	Start time.Time // the phase's zero: every shot offset counts from it
	Wall  time.Duration
}

func (p phase) failures() int {
	n := 0
	for _, s := range p.Shots {
		if s.Err != nil {
			n++
		}
	}
	return n
}

func micros(f func(s shot) time.Duration, shots []shot) []float64 {
	out := make([]float64, 0, len(shots))
	for _, s := range shots {
		if s.Err == nil {
			out = append(out, float64(f(s))/float64(time.Microsecond))
		}
	}
	return out
}

func (p phase) latency() (dist, error)  { return summarize(micros(shot.Latency, p.Shots)) }
func (p phase) lateness() (dist, error) { return summarize(micros(shot.Late, p.Shots)) }

// spinWindow is how close to a due time a sender stops sleeping and
// spins instead.
const spinWindow = 100 * time.Microsecond

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinSender locks the calling goroutine to its thread and sets the
// thread's timer slack to 1ns. Go's own timers fire up to a millisecond
// late on Linux, and a sender that late would charge its own lateness
// to the server; a nanosleep on a slack-free thread wakes within tens
// of microseconds. The returned function unlocks.
func pinSender() func() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: lateness is measured either way
	return runtime.UnlockOSThread
}

// waitUntil blocks the pinned sender until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake (EINTR) spins the rest
	}
	for time.Now().Before(t) {
	}
}

// check validates one response; i indexes the phase's request list.
type check func(i, status int, body []byte) error

// sendAll sends every request of shots over the client's connections,
// one sender thread per connection, and returns when all are answered.
// A sender takes the next request in order as soon as its connection is
// free and, when due is not nil, waits for the request's due time
// before sending it. That makes a single FIFO queue in front of the
// connections: a request that finds every connection busy waits, and
// its latency still counts from its due time. With due nil every
// request is due when a connection takes it.
func sendAll(ctx context.Context, c *client, due []time.Duration, shots []shot,
	body func(i int) []byte, seq func(i int) int, chk check) phase {
	var next atomic.Int64
	for w := range c.conns {
		_, _ = c.conn(w) // dial before the clock starts; a failure recurs, and is recorded, in the sender
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pinSender()()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					return
				}
				s := &shots[i]
				free := time.Since(start)
				s.Due, s.Dispatched = free, free
				if due != nil {
					s.Due = due[i]
					if free < s.Due {
						waitUntil(start.Add(s.Due))
						s.Dispatched = s.Due
					}
				}
				rc, err := c.conn(w)
				if err == nil {
					err = ctx.Err()
				}
				var status int
				var b []byte
				s.Sent = time.Since(start)
				if err == nil {
					status, b, err = rc.solve(body(i), seq(i))
				}
				s.Done = time.Since(start)
				if err != nil || rc.dead {
					c.drop(w)
				}
				if err == nil {
					err = chk(i, status, b)
				}
				s.Err = err
			}
		}()
	}
	wg.Wait()
	return phase{Shots: shots, Start: start, Wall: time.Since(start)}
}

// openLoop sends body(i) at each due offset regardless of completions.
func openLoop(ctx context.Context, c *client, due []time.Duration, body func(i int) []byte, seq func(i int) int, chk check) phase {
	return sendAll(ctx, c, due, make([]shot, len(due)), body, seq, chk)
}

// closedLoop sends n requests as fast as the connections allow: each
// connection sends its next request when the previous one completes.
func closedLoop(ctx context.Context, c *client, n int, body func(i int) []byte, chk check) phase {
	return sendAll(ctx, c, nil, make([]shot, n), body, noSeq, chk)
}

// statusOK is the check every solve must pass before its body is
// compared.
func statusOK(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	return nil
}

// geometricLadder returns rates from lo growing by ratio up to hi.
func geometricLadder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		out = append(out, math.Round(r))
	}
	return out
}
