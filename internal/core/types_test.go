package core

import (
	"slices"
	"strings"
	"testing"

	"flexio/internal/ndarray"
)

func TestVarMetaValidate(t *testing.T) {
	shape := []int64{8, 4}
	box := func(lo, hi []int64) ndarray.Box { return ndarray.NewBox(lo, hi) }
	for _, tc := range []struct {
		name string
		meta VarMeta
		want string // substring of the error; "" means valid
	}{
		{"inside", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{0, 0}, []int64{8, 4})}, ""},
		{"interior", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{2, 1}, []int64{5, 3})}, ""},
		{"hi past shape", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{0, 0}, []int64{8, 5})}, "outside global"},
		{"negative lo", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{-1, 0}, []int64{2, 4})}, "outside global"},
		// ContainsBox's rule: an empty box is inside any box of its rank,
		// even where its bounds lie outside the global shape.
		{"empty outside", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{9, 9}, []int64{9, 12})}, ""},
		{"empty negative", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{-3, 0}, []int64{-3, 4})}, ""},
		{"rank mismatch", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar, GlobalShape: shape,
			Box: box([]int64{0}, []int64{8})}, "box rank"},
		{"no shape", VarMeta{Name: "a", ElemSize: 8, Kind: GlobalArrayVar}, "needs a shape"},
		{"no name", VarMeta{ElemSize: 8}, "needs a name"},
		{"bad elem", VarMeta{Name: "a"}, "elem size"},
		{"process group", VarMeta{Name: "a", ElemSize: 8, Kind: ProcessGroupVar}, ""},
	} {
		err := tc.meta.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAppendBoxRecordsDiffer checks that distribution records tell apart
// the changes CACHING_ALL must re-handshake on, including two
// distributions whose coordinates concatenate to the same numbers.
func TestAppendBoxRecordsDiffer(t *testing.T) {
	rec := func(boxes ...ndarray.Box) []int64 {
		var r []int64
		for _, b := range boxes {
			r = appendBox(r, b)
		}
		return r
	}
	a := ndarray.NewBox([]int64{0, 0}, []int64{4, 4})
	b := ndarray.NewBox([]int64{4, 0}, []int64{8, 4})
	if !slices.Equal(rec(a, b), rec(a, b)) {
		t.Fatal("equal distributions must give equal records")
	}
	if slices.Equal(rec(a, b), rec(b, a)) {
		t.Fatal("swapping two ranks' boxes must change the record")
	}
	if slices.Equal(rec(a, b), rec(a)) {
		t.Fatal("a rank dropping its box must change the record")
	}
	one := ndarray.NewBox([]int64{0, 1}, []int64{2, 3})
	two := []ndarray.Box{ndarray.NewBox([]int64{0}, []int64{1}), ndarray.NewBox([]int64{2}, []int64{3})}
	if slices.Equal(rec(one), rec(two...)) {
		t.Fatal("records of different ranks must differ")
	}
}
