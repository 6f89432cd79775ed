package query

import "fmt"

// Accuracy is an intent's target error budget — the paper's promise is
// accuracy, not geometry, so an operator declares how wrong an answer
// may be and the control loop owns the sketch width that delivers it.
//
// The zero value means "no accuracy intent": the query is provisioned
// statically by the width ladder and never refined.
type Accuracy struct {
	// MaxRelErr is the tolerated relative estimation error in (0, 1):
	// the Count-Min overcount bound ε·N (and any distinct filter's
	// false-positive probability) must stay within MaxRelErr of the
	// query's decision scale — its report threshold when it has one,
	// otherwise the stream total itself.
	MaxRelErr float64
}

// Enabled reports whether the intent carries an accuracy target.
func (a Accuracy) Enabled() bool { return a.MaxRelErr > 0 }

// Validate rejects out-of-range targets. The zero value is valid.
func (a Accuracy) Validate() error {
	if a.MaxRelErr < 0 || a.MaxRelErr >= 1 {
		return fmt.Errorf("query: accuracy MaxRelErr %g outside (0, 1)", a.MaxRelErr)
	}
	return nil
}

func (a Accuracy) String() string {
	if !a.Enabled() {
		return "accuracy(none)"
	}
	return fmt.Sprintf("accuracy(relerr<=%.3g)", a.MaxRelErr)
}
