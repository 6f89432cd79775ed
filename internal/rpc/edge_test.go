package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

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
		var v Response
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
	var v Response
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
	var v Response
	if err := ReadFrame(server, &v); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// fakeAgentConn answers every request with a fixed response, regardless
// of type — the shape of a buggy or mismatched peer.
func fakeAgentConn(t *testing.T, resp *Response) *Client {
	t.Helper()
	server, client := net.Pipe()
	go func() {
		for {
			var req Request
			if err := ReadFrame(server, &req); err != nil {
				return
			}
			if err := WriteFrame(server, resp); err != nil {
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
	c := fakeAgentConn(t, &Response{OK: true})
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
	var hdr [4]byte
	body := []byte("not json at all")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	client.Write(hdr[:])
	client.Write(body)

	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("nil error surfaced")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("garbage frame was swallowed silently")
	}
	if agent.ConnErrors() != 1 {
		t.Errorf("ConnErrors = %d, want 1", agent.ConnErrors())
	}
	client.Close()
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
