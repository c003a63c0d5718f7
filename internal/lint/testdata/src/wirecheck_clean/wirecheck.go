// Package wirecheck_clean round-trips a wire type wirecheck must accept:
// all-exported encodable fields, and an interface field whose concrete
// types the package registers with gob.
package wirecheck_clean

import (
	"bytes"
	"encoding/gob"
)

type Payload struct {
	Name string
	Vals []int64
	Tags map[string]string
	Body any
}

// A correct //lint:wire pin: Payload has exactly four fields.
//
//lint:wire Payload
const payloadWireFields = 4

func init() {
	gob.Register(int64(0))
	gob.Register("")
}

func Roundtrip(p Payload) (Payload, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return Payload{}, err
	}
	var out Payload
	err := gob.NewDecoder(&buf).Decode(&out)
	return out, err
}
