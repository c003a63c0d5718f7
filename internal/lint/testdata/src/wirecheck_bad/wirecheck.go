// Package wirecheck_bad sends types through gob that violate every
// wirecheck rule: unencodable fields, silently-dropped unexported fields,
// a reachable struct with no exported fields, and an interface field
// with no gob.Register anywhere in the package.
package wirecheck_bad

import (
	"bytes"
	"encoding/gob"
)

type Payload struct {
	Name   string
	Fn     func()     // want `field Fn of wire type wirecheck_bad\.Payload is a func`
	Ch     chan int   // want `field Ch of wire type wirecheck_bad\.Payload is a channel`
	Z      complex128 // want `field Z of wire type wirecheck_bad\.Payload has type complex128`
	hidden int        // want `unexported field hidden of wire type wirecheck_bad\.Payload is silently dropped`
	Data   Inner
	Meta   meta
}

//lint:wire Payload
const payloadWireFields = 3 // want `wire type wirecheck_bad\.Payload has 7 fields but the codec pins 3`

//lint:wire Missing
const missingWireFields = 1 // want `lint:wire pins unknown type Missing`

//lint:wire NotAStruct
const notAStructWireFields = 1 // want `lint:wire target NotAStruct is not a struct`

// NotAStruct exercises the non-struct pin diagnostic.
type NotAStruct int

type Inner struct {
	Val any // want `interface-typed field Val of wire type wirecheck_bad\.Inner crosses the wire without any gob\.Register`
}

type meta struct {
	n int // want `unexported field n of wire type wirecheck_bad\.meta is silently dropped`
}

func Send(p Payload) error {
	var buf bytes.Buffer
	return gob.NewEncoder(&buf).Encode(p) // want `wire type wirecheck_bad\.meta has no exported fields`
}
