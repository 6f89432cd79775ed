package query

import (
	"reflect"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/fields"
)

// fullQuery is a query in which every slice holds an element and every
// pointer is set, so a walk over it reaches every field of every type a
// Query is built from.
func fullQuery() *Query {
	return &Query{
		Name: "full", Description: "every field set", Window: time.Second,
		Branches: []Branch{{Prims: []Primitive{
			{Kind: KindFilter, Preds: []Predicate{MaskEq(fields.DstIP, 0xFF00, 0x0A00)}},
			{Kind: KindReduce, Keys: fields.Keep(fields.DstIP), Value: ValueOne},
		}}},
		Merge: &Merge{Op: MergeLinear, Coeffs: []int64{1}, Cmp: CmpGt, Threshold: 40},
	}
}

// perturbations walks v depth first and hands visit one change per field
// it reaches: a scalar moves by one, a slice grows by an element, a
// pointer is cleared. A container's elements come before the container's
// own change, so applying every change in order mutates each element
// through the container it was reached by. A field of a kind the walk
// does not know fails the test.
func perturbations(t *testing.T, path string, v reflect.Value, visit func(path string, change func())) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbations(t, path+"."+v.Type().Field(i).Name, v.Field(i), visit)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil in the walked query", path)
		}
		perturbations(t, path, v.Elem(), visit)
		visit(path+" (nil)", func() { v.Set(reflect.Zero(v.Type())) })
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty in the walked query", path)
		}
		perturbations(t, path+"[0]", v.Index(0), visit)
		visit(path+" (len)", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
	case reflect.Array:
		perturbations(t, path+"[0]", v.Index(0), visit)
	case reflect.String:
		visit(path, func() { v.SetString(v.String() + "x") })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		visit(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		visit(path, func() { v.SetUint(v.Uint() + 1) })
	default:
		t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
	}
}

// TestEqualCoversEveryField changes one field of a clone at a time, for
// every field reflection finds, and wants Equal to see each change. A
// field added to Query, Branch, Primitive, Predicate or Merge fails here
// until Equal compares it.
func TestEqualCoversEveryField(t *testing.T) {
	base := fullQuery()
	if !Equal(base, base.Clone()) {
		t.Fatal("a clone is not Equal to its original")
	}
	n := 0
	for i := 0; ; i++ {
		c, at, k := base.Clone(), "", 0
		perturbations(t, "Query", reflect.ValueOf(c).Elem(), func(path string, change func()) {
			if k == i {
				at = path
				change()
			}
			k++
		})
		if at == "" {
			break
		}
		if Equal(base, c) || Equal(c, base) {
			t.Errorf("Equal misses a change to %s", at)
		}
		n++
	}
	if n < 15 {
		t.Fatalf("walked %d fields, want every field of the query's types", n)
	}
}

// TestCloneIsDeep changes every field of a clone and wants the original
// untouched: nothing the clone holds is shared.
func TestCloneIsDeep(t *testing.T) {
	base := fullQuery()
	c := base.Clone()
	perturbations(t, "Query", reflect.ValueOf(c).Elem(), func(_ string, change func()) { change() })
	if !reflect.DeepEqual(base, fullQuery()) {
		t.Fatalf("changing a clone changed its original:\n%+v", base)
	}
}
