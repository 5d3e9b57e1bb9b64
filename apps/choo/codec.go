package choo

import (
	"reflect"

	"altrun/internal/transport"
	"altrun/internal/transport/codec"
)

// Wire registration for ProgSpec (codec.TagChooProgSpec). Registered
// here rather than centrally for the same reason as internal/stm's
// TxnSpec: the app sits above internal/core, which the codec package
// must not depend on.

func init() {
	transport.RegisterWire(transport.WireCodec{
		Tag:    codec.TagChooProgSpec,
		Type:   reflect.TypeOf(ProgSpec{}),
		Append: appendProgSpec,
		Decode: decodeProgSpec,
	})
	codec.RegisterSeed(transport.Envelope{
		From: 1, To: transport.Addr{Node: 2, Port: "rfork"},
		Payload: ProgSpec{
			ProgID:     9,
			Source:     "proc a { x := 1; }\nproc b { x := 2; }\nchoo(a, b);\nprint x;\n",
			DeadlineMS: 5000, MaxDegree: 2,
		},
	})
}

func appendProgSpec(p any, dst []byte) []byte {
	m := p.(ProgSpec)
	dst = transport.AppendVarint(dst, m.ProgID)
	dst = transport.AppendString(dst, m.Source)
	dst = transport.AppendVarint(dst, m.DeadlineMS)
	return transport.AppendVarint(dst, int64(m.MaxDegree))
}

func decodeProgSpec(data []byte) (any, error) {
	r := transport.NewWireReader(data)
	m := ProgSpec{
		ProgID:     r.Varint(),
		Source:     r.String(),
		DeadlineMS: r.Varint(),
		MaxDegree:  int(r.Varint()),
	}
	return m, r.Err()
}
