// Package strictjson is the one strict JSON decoder behind every spec file
// the simulator reads (fault scenarios, federation specs, populations,
// server maps, import bundles, scenario plans): unknown fields and anything
// but whitespace after the single top-level value are errors.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// Decode unmarshals data into v, rejecting unknown object fields and any
// data after the value. Callers wrap the error with their own prefix and
// validate the result themselves.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Decoder.More reports false before a stray '}' or ']', so it cannot
	// tell a clean end from `{"a":1}}`; only io.EOF can.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after value")
	}
	return nil
}
