package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// echoServer copies everything it reads back to the writer until error.
func echoServer(c net.Conn) {
	io.Copy(c, c)
	c.Close()
}

func TestPassThroughWhenUnarmed(t *testing.T) {
	inj := New(Config{Seed: 1})
	client, server := inj.Pipe()
	go echoServer(server)
	defer client.Close()

	msg := []byte("hello newton")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	inj := New(Config{Seed: 3})
	client, server := inj.Pipe()
	go echoServer(server)
	defer client.Close()

	inj.Partition()
	if _, err := client.Write([]byte("a")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("partitioned write err = %v", err)
	}
	inj.Heal()
	if _, err := client.Write([]byte("a")); err != nil {
		t.Fatalf("healed write err = %v", err)
	}
	got := make([]byte, 1)
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("healed read: %v", err)
	}
}

func TestStallRespectsDeadline(t *testing.T) {
	inj := New(Config{Seed: 4})
	client, server := inj.Pipe()
	go echoServer(server)
	defer client.Close()

	inj.Stall()
	defer inj.Unstall()
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := client.Read(make([]byte, 1))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled read blocked %v past its deadline", elapsed)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a timeout net.Error", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestStallUnstallReleasesOps(t *testing.T) {
	inj := New(Config{Seed: 5})
	client, server := inj.Pipe()
	go echoServer(server)
	defer client.Close()

	inj.Stall()
	done := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("z"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled write returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	inj.Unstall()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released write err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still blocked after Unstall")
	}
}

func TestSeededResetsAreDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(Config{Seed: seed, ResetProb: 0.3})
		var outcomes []bool
		for i := 0; i < 20; i++ {
			client, server := inj.Pipe()
			go echoServer(server)
			_, err := client.Write([]byte("p"))
			outcomes = append(outcomes, errors.Is(err, ErrInjectedReset))
			client.Close()
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged between equal-seed runs", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	inj := New(Config{Seed: 7})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := inj.Listener(ln)
	defer wrapped.Close()
	go func() {
		c, err := wrapped.Accept()
		if err != nil {
			return
		}
		echoServer(c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inj.Partition()
	// The accepted (server) side is wrapped: its reads fail, so the
	// client sees the stream die rather than an echo.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	c.Write([]byte("q"))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Error("partitioned accept side still echoed")
	}
}
