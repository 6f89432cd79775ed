package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// catalogProgram compiles catalog query i (0-based) at width w under qid
// i+1, as the orchestrator compiles an intent.
func catalogProgram(t testing.TB, i int, w uint32) *modules.Program {
	t.Helper()
	o := compiler.AllOpts()
	o.QID, o.Width = i+1, w
	p, err := compiler.Compile(query.All()[i], o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// churnStagesPer is the churn workload's stages per switch, over which
// it slices the 11-stage q4.
const churnStagesPer = 9

// goldenPrograms is the SHA-256 of each program's encoding: the nine
// catalog programs at width 1024, then q4's two partitions at
// churnStagesPer. A change here is a change of the install encoding,
// which needs a new ProgramVersion.
var goldenPrograms = []string{
	"q1_new_tcp_connections", "15979a18f90dcdc0c3544e3e1736acc16eb0bc34b7953491d622ca8920feea98",
	"q2_ssh_brute", "469d383faa851a448de00b1d21bb7efa8514fc9fdc6a8a7f23638b6b3f90d7bd",
	"q3_super_spreader", "0377e88a004c7f6b8c1c8afef9d7cc3845777ee725118a6fa4984b274b5047a4",
	"q4_port_scan", "af24d910e674e5ed2831bafa00af163dffe0677ac0cff28060031782c3dbde8d",
	"q5_udp_ddos", "b6749cc7d45a3e48d345ce3a26c3b5796335a67044d02e2fdd0421b70bb646ab",
	"q6_syn_flood", "b8a011f3e86c0b4de07b714bc8773331255315924bf6b233450cb4ceb03984ee",
	"q7_completed_tcp", "c7c38628840a088e1c37749a3585114d2861574d3ceae0e6955fe107a74fb4c9",
	"q8_slowloris", "b0b0eb6a5489178822f9d2179255a135ba0c12a85ff5b98468dd4ee017d2bb83",
	"q9_dns_no_tcp", "976c72c566628c7eaf0fc38fe82b00008659b02adb12e1be428ccfdf5a04b5f1",
	"q4_port_scan/part0", "912870673f754a30e296dfb2fe095112a8bf059d18ed5b066de0bdadafef0cf9",
	"q4_port_scan/part1", "468d1ceb2ba841ad43ae6907a2b6846309c69c4c61f42e9f4973623fdc657769",
}

// goldenSet is what goldenPrograms pins: name and encoding.
func goldenSet(t testing.TB) (names []string, encs [][]byte) {
	for i := range query.All() {
		p := catalogProgram(t, i, 1024)
		names = append(names, p.Name)
		encs = append(encs, AppendProgram(nil, p))
	}
	parts, err := modules.SliceProgram(catalogProgram(t, 3, 1024), churnStagesPer)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		names = append(names, p.Name)
		encs = append(encs, AppendProgram(nil, p))
	}
	return names, encs
}

// TestProgramGolden pins the install encoding of every program the
// evaluation and the churn workload install, byte for byte.
func TestProgramGolden(t *testing.T) {
	names, encs := goldenSet(t)
	var got []string
	for i, enc := range encs {
		sum := sha256.Sum256(enc)
		got = append(got, names[i], hex.EncodeToString(sum[:]))
	}
	if fmt.Sprint(got) != fmt.Sprint(goldenPrograms) {
		for i := 0; i < len(got); i += 2 {
			t.Logf("%q, %q,", got[i], got[i+1])
		}
		t.Fatal("program encodings moved")
	}
}

// jsonOf is the debug dump of a program.
func jsonOf(t testing.TB, p *modules.Program) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestProgramRoundTrip encodes every catalog program at three widths,
// whole and at every partition size SliceProgram accepts, and decodes
// it: the JSON dump must be the original's — nil where it had no ops,
// entries or actions, which an arena slice of length zero is not — and
// the program must re-encode to the same bytes.
func TestProgramRoundTrip(t *testing.T) {
	n := 0
	for i := range query.All() {
		for _, w := range []uint32{512, 1024, 4096} {
			whole := catalogProgram(t, i, w)
			progs := []*modules.Program{whole}
			for per := 1; per <= whole.NumStages(); per++ {
				parts, err := modules.SliceProgram(whole, per)
				if err == nil {
					progs = append(progs, parts...)
				}
			}
			for _, p := range progs {
				enc := AppendProgram(nil, p)
				got, err := DecodeProgram(enc)
				if err != nil {
					t.Fatalf("%s w%d part %d/%d: %v", p.Name, w, p.Part, p.TotalParts, err)
				}
				if g, want := jsonOf(t, got), jsonOf(t, p); g != want {
					t.Fatalf("%s w%d part %d/%d decodes to\n%s\nwant\n%s", p.Name, w, p.Part, p.TotalParts, g, want)
				}
				if re := AppendProgram(nil, got); !bytes.Equal(re, enc) {
					t.Fatalf("%s w%d part %d/%d re-encodes to other bytes", p.Name, w, p.Part, p.TotalParts)
				}
				n++
			}
		}
	}
	t.Logf("%d programs round-tripped", n)
}

// TestDecodeProgramAllocs: a decode is one allocation per arena, the
// program, its branch list and its name — the same count for q1's few
// ops as for q6's many.
func TestDecodeProgramAllocs(t *testing.T) {
	var counts []float64
	for _, i := range []int{0, 5} {
		enc := AppendProgram(nil, catalogProgram(t, i, 1024))
		n := testing.AllocsPerRun(50, func() {
			if _, err := DecodeProgram(enc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("q%d: %d bytes, %.0f allocations a decode", i+1, len(enc), n)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] || counts[0] > 16 {
		t.Fatalf("decode allocations q1 %.0f, q6 %.0f: want one fixed count of at most 16", counts[0], counts[1])
	}
}

// TestDecodeProgramRefusals: each structural fault is ErrMalformed.
func TestDecodeProgramRefusals(t *testing.T) {
	enc := AppendProgram(nil, catalogProgram(t, 0, 1024))
	wrongVersion := bytes.Clone(enc)
	wrongVersion[0] = ProgramVersion + 1
	overlong := append([]byte{ProgramVersion, 0x81, 0x00}, enc[2:]...) // branches 1 in two bytes
	manyOps := bytes.Clone(enc)
	manyOps[2] = 0x7F // op total past the bytes left
	for name, b := range map[string][]byte{
		"empty":           nil,
		"truncated":       enc[:len(enc)-1],
		"trailing byte":   append(bytes.Clone(enc), 0),
		"unknown version": wrongVersion,
		"overlong varint": overlong,
		"op total":        manyOps,
	} {
		if _, err := DecodeProgram(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
	if _, err := DecodeProgram(wrongVersion); !errors.Is(err, ErrBadVersion) {
		t.Errorf("unknown version: %v, want ErrBadVersion too", err)
	}
}

// FuzzDecodeProgram: arbitrary bytes never panic the decoder, every
// refusal is ErrMalformed, and an accepted input re-encodes to itself.
func FuzzDecodeProgram(f *testing.F) {
	_, encs := goldenSet(f)
	for _, enc := range encs {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{ProgramVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeProgram(b)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("refusal %v is not ErrMalformed", err)
			}
			return
		}
		if re := AppendProgram(nil, p); !bytes.Equal(re, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, re)
		}
	})
}
