package telemetry_test

import (
	"net"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/telemetry"
)

// benchExporter wires an exporter to a live service over loopback TCP
// (net.Pipe when the sandbox forbids sockets) and hands both back.
func benchExporter(b *testing.B, policy telemetry.Policy) (*telemetry.Exporter, *telemetry.Service) {
	b.Helper()
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	cfg := telemetry.ExporterConfig{SwitchID: "bench", Policy: policy}
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		go svc.Serve(ln)
		exp, err := telemetry.Dial(ln.Addr().String(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return exp, svc
	}
	server, client := net.Pipe()
	go svc.HandleConn(server)
	exp, err := telemetry.NewExporter(client, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return exp, svc
}

// BenchmarkReportExport measures sustained push throughput through the
// full stack — ring, batcher, wire codec, stream, service ingest — and
// certifies zero loss under the block policy. Rows also report bytes
// per exported report.
func BenchmarkReportExport(b *testing.B) {
	batch := make([]dataplane.Report, 64)
	for i := range batch {
		var keys fields.Vector
		keys.Set(fields.DstIP, uint64(0x0A000000+i))
		batch[i] = dataplane.Report{
			SwitchID: "bench", QueryID: 1, TS: uint64(i),
			Keys: keys, KeyMask: fields.Keep(fields.DstIP), State: uint64(i),
		}
	}

	for _, policy := range []telemetry.Policy{telemetry.PolicyBlock, telemetry.PolicyDropOldest} {
		b.Run(policy.String(), func(b *testing.B) {
			exp, svc := benchExporter(b, policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Export(batch)
			}
			if err := exp.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()

			st := exp.Stats()
			total := uint64(b.N) * uint64(len(batch))
			if st.Enqueued != total {
				b.Fatalf("enqueued %d of %d", st.Enqueued, total)
			}
			if policy == telemetry.PolicyBlock {
				if st.Dropped != 0 {
					b.Fatalf("block policy dropped %d reports", st.Dropped)
				}
				if st.Exported != total {
					b.Fatalf("exported %d of %d under block policy", st.Exported, total)
				}
			} else if st.Exported+st.Dropped != total {
				b.Fatalf("loss accounting: exported %d + dropped %d != %d", st.Exported, st.Dropped, total)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(st.Exported)/s, "reports/s")
				b.ReportMetric(float64(st.Dropped), "dropped")
			}
			if st.Exported > 0 {
				b.ReportMetric(float64(st.WireBytes)/float64(st.Exported), "wireB/report")
			}
			exp.Close()
			svc.Close()
		})
	}
}
