package typestate_test

import (
	"reflect"
	"testing"

	"cyclojoin/internal/lint/dataflow/typestate"
)

// TestFactsEncoding pins the fact bytes: key order, field names, and
// empty effects left out. Importers written by an earlier cyclolint read
// these blobs back, so the encoding must not drift.
func TestFactsEncoding(t *testing.T) {
	effects := map[string]*typestate.Effect{
		"b.Put":   {Key: "b.Put", ParamRelease: []int{1}},
		"a.Take":  {Key: "a.Take", ParamBorrowed: []int{0}, AcquiresResult: []int{0}},
		"c.Noop":  {Key: "c.Noop"},
		"d.Alias": nil,
	}
	got := string(typestate.EncodeFacts(effects))
	want := `{"effects":[{"key":"a.Take","param_borrowed":[0],"acquires_result":[0]},{"key":"b.Put","param_release":[1]}]}`
	if got != want {
		t.Fatalf("EncodeFacts:\n got %s\nwant %s", got, want)
	}
	back := typestate.DecodeFacts([]byte(got))
	if len(back) != 2 || !reflect.DeepEqual(back["a.Take"], effects["a.Take"]) || !reflect.DeepEqual(back["b.Put"], effects["b.Put"]) {
		t.Errorf("DecodeFacts round trip: %+v", back)
	}
	if got := string(typestate.EncodeFacts(nil)); got != `{"effects":null}` {
		t.Errorf("EncodeFacts(nil) = %s", got)
	}
	if len(typestate.DecodeFacts([]byte("garbage"))) != 0 || len(typestate.DecodeFacts(nil)) != 0 {
		t.Error("DecodeFacts must tolerate nil and garbage")
	}
}
