package cluster

// The shard backend: one serve.Service behind a TCP listener. A shard
// decodes group frames, hands each to the service whole with one
// SubmitGroup call (exactly like the in-process replay client), and
// streams result frames back as they complete. Its evaluation keys are
// derived deterministically from tenant names (serve.TenantSeed), so
// every shard of a cluster serves bit-identical results for the same
// request — the property replication and the router-side serial
// reference rely on.
//
// Drain is the stats-exactness mechanism: once draining, a shard
// requeues incoming group frames *before executing anything* (a group
// is one frame, so the decision is atomic per group), finishes its
// in-flight groups, and replies with a final stats snapshot. After
// DrainDone its counters can never move again, so the router can add
// them to the live shards' deltas and still land exactly on the
// schedule prediction: requeued work is counted only by the shard
// that eventually runs it.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ciflow/internal/ckks"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// frameWriter serializes frame writes on one connection, which result
// streaming (many goroutines) and control replies share.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
	// wb and out hold a group or result frame's slices while it is
	// written: header bytes and row views, never a row's copy.
	wb  wireBufs
	out net.Buffers
}

// encodeError marks a frame that could not be built: nothing reached
// the connection, which is as healthy as it was.
type encodeError struct{ error }

// send writes the frame carrying p as its slices — frame header, fixed
// fields and each polynomial's header in runs, each residue row straight
// from its polynomial — with one net.Buffers write: one writev on a TCP
// connection, so no residue is copied in user space. It is the only
// frame writer: control frames pass their payload as a rawPayload. The
// caller must not change p's polynomials until send returns.
func (fw *frameWriter) send(typ FrameType, r *ring.Ring, p framePayload) error {
	n := p.wireSize(r)
	if n > maxFramePayload {
		return encodeError{fmt.Errorf("cluster: %v frame payload %d exceeds cap %d", typ, n, maxFramePayload)}
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.wb.reset()
	fw.wb.hdr = appendFrameHeader(fw.wb.hdr, typ, n)
	if err := p.appendWire(&fw.wb, r); err != nil {
		return encodeError{err}
	}
	// WriteTo consumes fw.out, not the slices wb keeps for the next frame.
	fw.out = fw.wb.segments()
	_, err := fw.out.WriteTo(fw.w)
	return err
}

// Shard wraps one serve.Service behind the wire protocol. Construct
// with NewShard, serve with Serve, and stop with Close (or a
// FrameShutdown from the router; Done unblocks either way).
type Shard struct {
	cctx *ckks.Context
	svc  *serve.Service

	// drainMu orders group acceptance against drain: a group either
	// lands in inflight before draining flips, or observes draining
	// and is requeued — never half of each.
	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	done     chan struct{}
	doneOnce sync.Once
}

// NewShard builds a shard serving the given tenants on cctx: one
// seed-derived key source (serve.SeedKeySource with compression on, so
// every shard and the router's verifier agree on key material while
// each shard's cache holds keys at their compressed footprint) behind
// a serve.Service configured by scfg.
func NewShard(cctx *ckks.Context, tenants []string, scfg serve.Config) (*Shard, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("cluster: shard needs at least one tenant")
	}
	src, err := serve.NewSeedKeySource(cctx, tenants, true)
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(cctx.Switchers(), src, scfg)
	if err != nil {
		return nil, err
	}
	return &Shard{
		cctx:  cctx,
		svc:   svc,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Done is closed when the shard has been told to shut down (Close or
// a FrameShutdown).
func (s *Shard) Done() <-chan struct{} { return s.done }

// Serve accepts router connections on ln until Close. It owns ln.
func (s *Shard) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("cluster: shard closed")
	}
	s.ln = ln
	s.mu.Unlock()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops the listener, drops connections, and drains the
// service. Safe to call more than once.
func (s *Shard) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if already {
		return
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.inflight.Wait()
	s.svc.Close()
	s.doneOnce.Do(func() { close(s.done) })
}

// acceptGroup claims an inflight slot unless the shard is draining.
func (s *Shard) acceptGroup() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// handle runs one connection's read loop. A protocol error (bad
// frame) drops the connection; the router treats that like a death.
func (s *Shard) handle(conn net.Conn) {
	fw := &frameWriter{w: conn}
	cr := newConnReader(conn, s.cctx.R)
	for {
		m, err := cr.next()
		if err != nil {
			return
		}
		switch m.typ {
		case FramePing:
			fw.send(FramePong, nil, rawPayload(nil))
		case FrameStatsReq:
			p, err := EncodeStats(s.svc.Stats())
			if err != nil {
				return
			}
			fw.send(FrameStats, nil, rawPayload(p))
		case FrameGroup:
			g := m.group
			if !s.acceptGroup() {
				for i := range g.Rots {
					s.writeResult(fw, &WireResult{ReqID: g.BaseID + uint64(i), Code: ResultRequeue})
				}
				s.cctx.R.PutPoly(g.Input)
				continue
			}
			go s.runGroup(fw, g)
		case FrameDrain:
			s.drainMu.Lock()
			s.draining = true
			s.drainMu.Unlock()
			go func() {
				s.inflight.Wait()
				p, err := EncodeStats(s.svc.Stats())
				if err != nil {
					return
				}
				fw.send(FrameDrainDone, nil, rawPayload(p))
			}()
		case FrameShutdown:
			s.doneOnce.Do(func() { close(s.done) })
			return
		default:
			// Reply frames are never valid from a router; drop the
			// connection rather than guess.
			return
		}
	}
}

// runGroup executes one accepted group: one SubmitGroup call, then the
// results streamed back as they complete. The service admits a group
// whole or not at all, so a refused frame fails every member. The
// service draws result polynomials from the ring's pool and nobody but
// this goroutine holds them, so once a result's frame has been written
// they go back for the next replay to draw. The group's input was drawn
// from the pool as its frame was read; the service reads it no more once
// the group's last result is out, and it goes back after that frame.
func (s *Shard) runGroup(fw *frameWriter, g *Group) {
	defer s.inflight.Done()
	reqs := make([]serve.Request, len(g.Rots))
	for i, rot := range g.Rots {
		reqs[i] = serve.Request{
			Input: g.Input, Rot: rot, Dataflow: g.Dataflow,
			Tenant: g.Tenant, Level: g.Level,
		}
	}
	chans, err := s.svc.SubmitGroup(context.Background(), reqs)
	for i := range reqs {
		wr := &WireResult{ReqID: g.BaseID + uint64(i)}
		if err != nil {
			wr.Code, wr.ErrMsg = ResultErr, err.Error()
		} else if res := <-chans[i]; res.Err != nil {
			wr.Code, wr.ErrMsg = ResultErr, res.Err.Error()
		} else {
			wr.C0, wr.C1 = res.C0, res.C1
		}
		s.writeResult(fw, wr)
		if wr.Code == ResultOK {
			s.cctx.R.PutPoly(wr.C0)
			s.cctx.R.PutPoly(wr.C1)
		}
	}
	s.cctx.R.PutPoly(g.Input)
}

// writeResult sends one result; a dead connection is the router's
// problem (it requeues undelivered requests), so errors are dropped
// here.
func (s *Shard) writeResult(fw *frameWriter, wr *WireResult) {
	fw.send(FrameResult, s.cctx.R, wr)
}
