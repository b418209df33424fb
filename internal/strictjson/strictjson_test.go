package strictjson

import (
	"strings"
	"testing"
)

type spec struct {
	A int `json:"a"`
}

func TestDecodeAccepts(t *testing.T) {
	for _, in := range []string{`{"a":1}`, " {\"a\":1}\n\t ", `{}`} {
		var s spec
		if err := Decode([]byte(in), &s); err != nil {
			t.Errorf("Decode(%q): %v", in, err)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{"a":1,"b":2}`, "unknown field"},
		{`{"a":1} {}`, "trailing data"},
		{`{"a":1}}`, "trailing data"},
		{`{"a":1} ]]]`, "trailing data"},
		{`{"a":1} x`, "trailing data"},
		{`{"a":1} 7`, "trailing data"},
		{`{"a":`, "unexpected EOF"},
		{``, "EOF"},
	}
	for _, tc := range cases {
		var s spec
		err := Decode([]byte(tc.in), &s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Decode(%q) = %v, want an error mentioning %q", tc.in, err, tc.want)
		}
	}
}
