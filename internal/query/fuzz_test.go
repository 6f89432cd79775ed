package query_test

import (
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/query"
)

// FuzzQueryParse: Parse never panics on any text, and a query it
// accepts compiles with every optimization at width 1024 or is refused
// with an error, never a panic. Seeded with the DSL of Parse's doc
// comment and its tests.
func FuzzQueryParse(f *testing.F) {
	for _, src := range []string{
		"filter(proto == tcp && tcp_flags == syn) | map(dip) | reduce(dip, sum) | filter(result > 40)",
		`filter(proto == tcp && tcp_flags == syn)    | map(dip) | reduce(dip, sum) | filter(result > 0) ;
		 filter(proto == tcp && tcp_flags == synack) | map(sip) | reduce(sip, sum) | filter(result > 0) ;
		 filter(proto == tcp && tcp_flags == ack)    | map(dip) | reduce(dip, sum) | filter(result > 0) ;
		 merge(1, 1, -2 > 30)`,
		`filter(proto == tcp && tcp_flags == syn) | map(dip) | reduce(dip, sum) | filter(result > 0) ;
		 filter(proto == tcp && tcp_flags == finack) | map(dip) | reduce(dip, sum) | filter(result > 0) ;
		 merge(min > 20)`,
		"filter(proto == tcp) | map(dip, dport) | distinct(dip, dport) | map(dip) | reduce(dip, sum) | filter(result > 99)",
		"filter(proto == udp) | map(sip/16) | reduce(sip/16, sum) | filter(result > 10)",
		"filter(proto == tcp) | reduce(dip, sum(len)) | filter(result > 1000)",
		"filter(dip == 10.0.0.1 && dport == 443 && proto == tcp) | map(dip) | reduce(dip, sum) | filter(result > 5)",
		"filter(tcp_flags == synack) | map(sip) | reduce(sip, sum) | filter(result > 1)",
		"window(250ms) | filter(proto == udp) | reduce(dip, sum) | filter(result > 1)",
		"filter(len <= 100) | reduce(dip, sum) | filter(result != 1)",
		"map(dip) | reduce(dip, sum) ; map(sip) | reduce(sip, sum) ; merge(x, 1 > 5)",
		"map(dip) | reduce(dip, sum) ; map(sip) | reduce(sip, sum) ; merge(min < 5)",
		"filter(result > 1)",
		"map(sip/xx)",
		"",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse("fuzz", src)
		if err != nil {
			return
		}
		o := compiler.AllOpts()
		o.Width = 1024
		if p, err := compiler.Compile(q, o); p == nil && err == nil {
			t.Fatalf("%q: Compile returned neither a program nor an error", src)
		}
	})
}
