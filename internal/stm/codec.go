package stm

import (
	"math"
	"reflect"

	"altrun/internal/transport"
	"altrun/internal/transport/codec"
)

// Wire registration for TxnSpec (codec.TagStmTxnSpec). The protocol
// messages register centrally in internal/transport/codec, but this
// package sits above internal/core on the dependency ladder and codec
// must stay importable from core's own tests — so the spec registers
// itself: any binary that can build the job can decode its frame.

func init() {
	transport.RegisterWire(transport.WireCodec{
		Tag:    codec.TagStmTxnSpec,
		Type:   reflect.TypeOf(TxnSpec{}),
		Append: appendTxnSpec,
		Decode: decodeTxnSpec,
	})
	codec.RegisterSeed(transport.Envelope{
		From: 1, To: transport.Addr{Node: 2, Port: "rfork"},
		Payload: TxnSpec{
			TxnID: 42, Keys: 16, Alts: 4, Ops: 8, ReadFrac: 0.5, Zipf: 1.2,
			AbortEvery: 3, Seed: 7, DeadlineMS: 5000, MaxDegree: 2,
		},
	})
}

// Floats cross the wire as their IEEE-754 bit patterns: bit-exact round
// trips (NaNs included), no locale or formatting concerns.

func appendFloat(dst []byte, v float64) []byte {
	return transport.AppendUvarint(dst, math.Float64bits(v))
}

func readFloat(r *transport.WireReader) float64 {
	return math.Float64frombits(r.Uvarint())
}

func appendTxnSpec(p any, dst []byte) []byte {
	m := p.(TxnSpec)
	dst = transport.AppendVarint(dst, m.TxnID)
	dst = transport.AppendVarint(dst, int64(m.Keys))
	dst = transport.AppendVarint(dst, int64(m.Alts))
	dst = transport.AppendVarint(dst, int64(m.Ops))
	dst = appendFloat(dst, m.ReadFrac)
	dst = appendFloat(dst, m.Zipf)
	dst = transport.AppendVarint(dst, int64(m.AbortEvery))
	dst = transport.AppendVarint(dst, m.Seed)
	dst = transport.AppendVarint(dst, m.DeadlineMS)
	return transport.AppendVarint(dst, int64(m.MaxDegree))
}

func decodeTxnSpec(data []byte) (any, error) {
	r := transport.NewWireReader(data)
	m := TxnSpec{
		TxnID:    r.Varint(),
		Keys:     int(r.Varint()),
		Alts:     int(r.Varint()),
		Ops:      int(r.Varint()),
		ReadFrac: readFloat(r),
		Zipf:     readFloat(r),
	}
	m.AbortEvery = int(r.Varint())
	m.Seed = r.Varint()
	m.DeadlineMS = r.Varint()
	m.MaxDegree = int(r.Varint())
	return m, r.Err()
}
