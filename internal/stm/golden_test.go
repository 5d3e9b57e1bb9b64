package stm

import (
	"reflect"
	"testing"
)

// The benchmark's stm workloads feed on GenOps and InitVals, so their
// output for a given seed is an input of record: these values were taken
// from the allocating rand.New(rand.NewSource(seed)) implementation and
// any change to how the generator is obtained must reproduce them bit for
// bit (the stm_spec spec shape: 8 keys, 4 alternatives, 10 ops, Zipf 1.2).
func TestGenOpsGolden(t *testing.T) {
	golden := []struct {
		seed int64
		alt  int
		ops  []Op
	}{
		{1, 0, []Op{
			{Read: true, Key: 0},
			{Read: true, Key: 0},
			{Key: 0, Val: 7265279069604038528},
			{Read: true, Key: 2},
			{Read: true, Key: 0},
			{Key: 0, Val: 6507026089832902132},
			{Read: true, Key: 7},
			{Key: 1, Val: 11749797538792383592},
			{Read: true, Key: 0},
			{Key: 2, Val: 4548277614124814578},
		}},
		{42, 3, []Op{
			{Read: true, Key: 0},
			{Key: 0, Val: 12942625841258318697},
			{Read: true, Key: 2},
			{Read: true, Key: 1},
			{Key: 2, Val: 17838047710477515883},
			{Read: true, Key: 7},
			{Read: true, Key: 1},
			{Read: true, Key: 2},
			{Read: true, Key: 2},
			{Key: 1, Val: 12820306203928142496},
		}},
		{-7, 1, []Op{
			{Key: 0, Val: 15193488523038495426},
			{Key: 5, Val: 12856507515868370809},
			{Key: 0, Val: 6567907266359062576},
			{Key: 0, Val: 13020443207476679276},
			{Read: true, Key: 4},
			{Read: true, Key: 5},
			{Key: 0, Val: 3414785959067596777},
			{Key: 0, Val: 10110211787643400213},
			{Key: 0, Val: 2611497661434289233},
			{Key: 0, Val: 16159160453554689706},
		}},
	}
	for _, g := range golden {
		cfg := Config{Keys: 8, Alts: 4, Ops: 10, ReadFrac: 0.5, Zipf: 1.2, Seed: g.seed}
		// Twice: the second call draws a recycled generator.
		for pass := 0; pass < 2; pass++ {
			if got := GenOps(cfg, g.alt); !reflect.DeepEqual(got, g.ops) {
				t.Errorf("GenOps(seed %d, alt %d) pass %d = %+v, want %+v", g.seed, g.alt, pass, got, g.ops)
			}
		}
	}
}

func TestInitValsGolden(t *testing.T) {
	golden := map[int64][]uint64{
		1: {0x8afd5c0c509affd9, 0x6b2f3a4ba676a308, 0x18955243af8cb5b2, 0x193aba0e3b96eb93,
			0x2f2a0fc67c8f4137, 0x1034fa950ee90d05, 0xbad49981fc3bf520, 0xebea36d7beb02489, 0},
		42: {0x358bf87b00006546, 0xa59e7b4448ba604d, 0xc08e76222127fdb4, 0xcb47fe80673166de,
			0x9865c10aa2ce7386, 0xad485d9a011cbd9e, 0xfc46eeccbd02241, 0x30896164c7aa5a70, 0},
	}
	for seed, want := range golden {
		cfg := Config{Keys: 8, Alts: 4, Ops: 10, ReadFrac: 0.5, Zipf: 1.2, Seed: seed}
		for pass := 0; pass < 2; pass++ {
			if got := InitVals(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("InitVals(seed %d) pass %d = %#x, want %#x", seed, pass, got, want)
			}
		}
	}
}
