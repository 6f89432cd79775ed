package query

import "testing"

func TestAccuracyValidate(t *testing.T) {
	cases := []struct {
		name string
		a    Accuracy
		ok   bool
	}{
		{"zero value", Accuracy{}, true},
		{"typical", Accuracy{MaxRelErr: 0.25}, true},
		{"negative relerr", Accuracy{MaxRelErr: -0.1}, false},
		{"relerr at 1", Accuracy{MaxRelErr: 1}, false},
	}
	for _, c := range cases {
		if err := c.a.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAccuracyEnabledAndDefaults(t *testing.T) {
	var zero Accuracy
	if zero.Enabled() {
		t.Error("zero accuracy must not be enabled")
	}
	if a := (Accuracy{MaxRelErr: 0.2}); !a.Enabled() {
		t.Error("MaxRelErr > 0 must enable the intent")
	}
}
