package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReadPcap: ReadPcap never panics on any bytes, and what it accepts
// is packets, each of them there. Seeded with a written trace, the same
// trace relabelled as big-endian microseconds, and cut-short copies.
func FuzzReadPcap(f *testing.F) {
	tr := Generate(Config{Seed: 5, Flows: 20, Duration: 50 * time.Millisecond}, SYNFlood{Victim: 0x0A000001, Packets: 10})
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr.Packets[:min(len(tr.Packets), 40)]); err != nil {
		f.Fatal(err)
	}
	pcap := buf.Bytes()
	f.Add(pcap)
	f.Add(pcap[:24])
	f.Add(pcap[:24+16+10])
	micros := bytes.Clone(pcap[:24])
	binary.BigEndian.PutUint32(micros[0:4], pcapMagicMicros)
	binary.BigEndian.PutUint32(micros[20:24], linkTypeEth)
	f.Add(micros)

	f.Fuzz(func(t *testing.T, b []byte) {
		pkts, _, err := ReadPcap(bytes.NewReader(b))
		if err != nil {
			return
		}
		for i, p := range pkts {
			if p == nil {
				t.Fatalf("packet %d of %d is nil", i, len(pkts))
			}
		}
	})
}
