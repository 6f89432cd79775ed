package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/wire"
)

// The hello framing's limits: WriteFrame and ReadFrame carry the
// telemetry hello and its ack.

func TestWriteFrameOversizedRejected(t *testing.T) {
	// An outbound frame over the limit must be rejected before any byte
	// hits the wire — a partial giant frame would desynchronize the peer.
	var sink strings.Builder
	huge := struct {
		Blob string `json:"blob"`
	}{Blob: strings.Repeat("x", MaxFrame+1)}
	err := WriteFrame(&sink, &huge)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Errorf("%d bytes written before the size check", sink.Len())
	}
}

func TestReadFrameOversizedHeaderRejected(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		client.Write(hdr[:])
	}()
	errCh := make(chan error, 1)
	go func() {
		var v struct{}
		errCh <- ReadFrame(server, &v)
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReadFrame hung on oversized header")
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	go func() {
		client.Write([]byte{0x00, 0x01}) // half a header
		client.Close()
	}()
	var v struct{}
	if err := ReadFrame(server, &v); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		client.Write(hdr[:])
		client.Write([]byte(`{"ok":tr`)) // body dies mid-read
		client.Close()
	}()
	var v struct{}
	if err := ReadFrame(server, &v); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadFrameHeaderDecidesNoAllocation: a hello header announcing
// MaxFrame, followed by the end of the stream, costs ReadFrame a few KB,
// not the 8 MB the header asked for.
func TestReadFrameHeaderDecidesNoAllocation(t *testing.T) {
	stream := append(binary.BigEndian.AppendUint32(nil, MaxFrame), `{"type":"hel`...)
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var v struct{}
		if err := ReadFrame(bytes.NewReader(stream), &v); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a MaxFrame header and EOF allocate %d B", per)
	}
}

// fakeAgentConn answers every request with a fixed response, regardless
// of its call — the shape of a buggy or mismatched peer.
func fakeAgentConn(t *testing.T, resp wire.Response) *Client {
	t.Helper()
	server, client := net.Pipe()
	go func() {
		fr := wire.NewFrameReader(server)
		var req wire.Request
		for {
			if readRequest(fr, &req) != nil {
				return
			}
			if wire.WriteFrame(server, wire.KindResponse, 0, wire.AppendResponse(nil, &resp)) != nil {
				return
			}
		}
	}()
	c := NewClient(client)
	t.Cleanup(func() { c.Close(); server.Close() })
	return c
}

func TestStatsMissingPayloadIsTypedError(t *testing.T) {
	// OK:true with no stats payload must surface as ErrMalformedResponse,
	// not a nil dereference.
	c := fakeAgentConn(t, wire.Response{OK: true})
	if _, err := c.Stats(); !errors.Is(err, ErrMalformedResponse) {
		t.Fatalf("Stats err = %v, want ErrMalformedResponse", err)
	}
}

func TestAgentSurfacesGarbageFrames(t *testing.T) {
	agent, _ := testAgent(t)
	errs := make(chan error, 1)
	agent.OnError = func(err error) { errs <- err }

	server, client := net.Pipe()
	go agent.HandleConn(server)
	// A well-framed request frame whose payload is not a request: a
	// stats request with bytes after its end.
	payload := append(wire.AppendRequest(nil, &wire.Request{Call: wire.CallStats}), "garbage"...)
	go wire.WriteFrame(client, wire.KindRequest, 0, payload)

	select {
	case err := <-errs:
		if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("surfaced %v, want wire.ErrMalformed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("garbage frame was swallowed silently")
	}
	if agent.ConnErrors() != 1 {
		t.Errorf("ConnErrors = %d, want 1", agent.ConnErrors())
	}
	client.Close()
}

// TestAgentBoundsStalledFrames: a peer that sends a request header and 4
// of its payload's bytes, then stalls, ends the handler frameStall later
// with a surfaced deadline error, so it cannot pin the goroutine and its
// frame buffers. A connection idle between frames past frameStall still
// serves its next call.
func TestAgentBoundsStalledFrames(t *testing.T) {
	t.Run("partial", func(t *testing.T) {
		t.Parallel()
		agent, _ := testAgent(t)
		errs := make(chan error, 1)
		agent.OnError = func(err error) { errs <- err }
		server, client := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		go func() {
			agent.HandleConn(server)
			close(done)
		}()
		payload := wire.AppendRequest(nil, &wire.Request{ID: 7, Call: wire.CallStats})
		frame := wire.AppendHeader(nil, wire.KindRequest, 0, payload)
		start := time.Now()
		go client.Write(append(frame, payload[:4]...))

		select {
		case err := <-errs:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("surfaced %v, want os.ErrDeadlineExceeded", err)
			}
			if took := time.Since(start); took < frameStall {
				t.Fatalf("the partial frame ended the handler after %v, before frameStall (%v)", took, frameStall)
			}
		case <-time.After(frameStall + 5*time.Second):
			t.Fatal("a frame stalled after its first bytes held the handler")
		}
		<-done
		if n := agent.ConnErrors(); n != 1 {
			t.Errorf("ConnErrors = %d, want 1", n)
		}
	})
	t.Run("idle", func(t *testing.T) {
		t.Parallel()
		agent, _ := testAgent(t)
		agent.OnError = func(err error) { t.Errorf("an idle connection surfaced %v", err) }
		c := pipeClient(t, agent)
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(frameStall + frameStall/4)
		if _, err := c.Stats(); err != nil {
			t.Fatalf("a call after %v idle: %v", frameStall+frameStall/4, err)
		}
	})
}

func TestAgentCleanDisconnectIsNotAnError(t *testing.T) {
	agent, _ := testAgent(t)
	agent.OnError = func(err error) { t.Errorf("clean EOF surfaced as error: %v", err) }
	c := pipeClient(t, agent)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	time.Sleep(20 * time.Millisecond) // let the handler observe the close
	if n := agent.ConnErrors(); n != 0 {
		t.Errorf("ConnErrors = %d after clean close", n)
	}
}

func TestAgentCloseDrainsConnections(t *testing.T) {
	agent, _ := testAgent(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- agent.Serve(ln) }()

	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	if err := agent.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Every tracked connection was shut; clients see dead sockets.
	for _, c := range clients {
		if _, err := c.Stats(); err == nil {
			t.Error("client survived agent Close")
		}
		c.Close()
	}
	// Close is idempotent, and a closed agent refuses new serving.
	if err := agent.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := agent.Serve(ln2); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve on closed agent = %v, want net.ErrClosed", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	// Many controllers hammer one agent at once; run under -race this
	// exercises the dispatch lock and connection tracking.
	agent, _ := testAgent(t)
	defer agent.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agent.Serve(ln)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				if _, err := c.Stats(); err != nil {
					t.Error(err)
					return
				}
				if err := c.NextEpoch(); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.DrainReports(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := agent.ConnErrors(); n != 0 {
		t.Errorf("ConnErrors = %d under clean concurrent load", n)
	}
}

func TestEpochHookOrdersBeforeRoll(t *testing.T) {
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)

	var sawEpoch uint32 = 99
	agent.OnEpoch = func() { sawEpoch = agent.eng.Layout().Epoch() }
	if err := c.NextEpoch(); err != nil {
		t.Fatal(err)
	}
	if sawEpoch != 0 {
		t.Errorf("OnEpoch observed epoch %d; must run before the roll (epoch 0)", sawEpoch)
	}
	if got := agent.eng.Layout().Epoch(); got != 1 {
		t.Errorf("epoch after tick = %d, want 1", got)
	}
}

// TestLocalEpochSerializesWithInstalls: a local window clock (such as
// newton-agent's replay loop) rolls through Agent.NextEpoch while a
// controller installs and removes over the control channel. The roll
// and its OnEpoch hook take the dispatch lock, so under -race the two
// never overlap.
func TestLocalEpochSerializesWithInstalls(t *testing.T) {
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)
	progs := []*modules.Program{compileQ1(t, 1), compileQ1(t, 2)}
	hooks := 0
	agent.SetTelemetryHooks(func() {
		hooks++
		agent.eng.LiveBanks(nil)
	})

	const rounds = 40
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			p := progs[i%len(progs)]
			if err := c.Install(p); err != nil {
				errc <- err
				return
			}
			if err := c.Remove(p.QID); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < rounds; i++ {
		agent.NextEpoch()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := agent.eng.Layout().Epoch(); got != rounds || hooks != rounds {
		t.Errorf("epoch %d and %d hooks after %d local rolls", got, hooks, rounds)
	}
	if n := agent.eng.InstalledCount(); n != 0 {
		t.Errorf("%d programs left installed", n)
	}
}

// The control stream's limits and torn frames, at the client.

// TestControlOversizedRequestRefused: a request past wire.MaxFrame is
// refused before a byte reaches the connection, and not retried: it is
// oversized on every attempt.
func TestControlOversizedRequestRefused(t *testing.T) {
	server, client := net.Pipe()
	wrote := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, server)
		wrote <- n
	}()
	c := NewClientOptions(client, Options{Retries: 3, BackoffBase: time.Millisecond}, nil)
	p := compileQ1(t, 1)
	p.Name = strings.Repeat("x", wire.MaxFrame)
	if err := c.Install(p); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("err = %v, want wire.ErrTooLarge", err)
	}
	if n := c.Counters().Retries; n != 0 {
		t.Errorf("an oversized request was retried %d times", n)
	}
	c.Close()
	if n := <-wrote; n != 0 {
		t.Errorf("%d bytes written before the size check", n)
	}
}

// answerWith serves one request on a pipe by writing raw, then hanging
// up, and returns a client of that pipe that does not retry.
func answerWith(t *testing.T, raw []byte) *Client {
	t.Helper()
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		var req wire.Request
		if readRequest(wire.NewFrameReader(server), &req) == nil {
			server.Write(raw)
		}
	}()
	c := NewClient(client)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestControlTornResponses: a response header announcing more than
// MaxFrame is wire.ErrTooLarge, not an allocation or a hang; half a
// header, or a body that dies mid-read, is io.ErrUnexpectedEOF.
func TestControlTornResponses(t *testing.T) {
	oversized := wire.AppendHeader(nil, wire.KindResponse, 0, nil)
	binary.LittleEndian.PutUint32(oversized[8:12], wire.MaxFrame+1)
	body := wire.AppendResponse(nil, &wire.Response{OK: true, HasStats: true})
	cut := append(wire.AppendHeader(nil, wire.KindResponse, 0, body), body[:len(body)/2]...)
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"oversized header", oversized, wire.ErrTooLarge},
		{"half a header", oversized[:wire.HeaderSize/2], io.ErrUnexpectedEOF},
		{"body cut short", cut, io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := answerWith(t, tc.raw)
			errCh := make(chan error, 1)
			go func() {
				_, err := c.Stats()
				errCh <- err
			}()
			select {
			case err := <-errCh:
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the client hung on a torn response")
			}
		})
	}
}
