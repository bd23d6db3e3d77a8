package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	kv "directload/internal/workload"
)

// The paper's geometry, taken from internal/workload: 20 B keys, values
// 20 KB ± 4 KB, 70 % of a version's entries identical to the previous
// version (sent as value-less dedup PUTs).
var geometry = kv.DefaultKVConfig()

const (
	keysPerVersion = 8000 // N: entries in one index version
	keepVersions   = 4    // DropVersion(v-4) after version v
	stampLen       = 16   // key index | base version | length | seed check
	fullCheckEvery = 16   // every 16th reply is compared byte for byte
	poolLen        = 4 << 20
)

// dataset is the input of the 20 KB workloads and the oracle every reply
// is checked against. A value is a 16-byte stamp followed by a slice of
// one shared random pool, so requests can be sent with writev straight
// from the pool and a reply is verified without storing it.
//
// The seed draws all of it: the pool, where in it each value lies, which
// entries repeat the previous version, how long each value is and (in the
// workloads) which keys are hot and which key each request asks for. GC
// decisions are chaotic in the shape, so the count metrics differ from
// seed to seed by a few per cent; for one seed they repeat.
type dataset struct {
	seed  int64
	pool  []byte
	keys  [][]byte
	plans []*versionPlan // plans[v-1]
}

// versionPlan says, for every key at one version, which older version
// holds its value (itself when the value changed) and how long it is.
type versionPlan struct {
	base []uint32
	vlen []uint32
}

func newDataset(seed int64, keys int) *dataset {
	d := &dataset{seed: seed, pool: make([]byte, poolLen), keys: make([][]byte, keys)}
	rand.New(rand.NewSource(seed)).Read(d.pool)
	for i := range d.keys {
		d.keys[i] = []byte(fmt.Sprintf("%020d", i))
	}
	return d
}

// plan returns the plan of version v, generating versions in order.
func (d *dataset) plan(v int) *versionPlan {
	for len(d.plans) < v {
		d.plans = append(d.plans, d.nextPlan())
	}
	return d.plans[v-1]
}

func (d *dataset) nextPlan() *versionPlan {
	v := len(d.plans) + 1
	rng := rand.New(rand.NewSource(d.seed<<20 + int64(v)))
	p := &versionPlan{base: make([]uint32, len(d.keys)), vlen: make([]uint32, len(d.keys))}
	for i := range d.keys {
		if v > 1 && rng.Float64() < geometry.DupRatio {
			prev := d.plans[v-2]
			p.base[i], p.vlen[i] = prev.base[i], prev.vlen[i]
			continue
		}
		n := geometry.ValueSize + int(rng.NormFloat64()*float64(geometry.ValueSizeStdDev))
		n = max(64, min(n, 4*geometry.ValueSize)) // internal/workload's clamp
		p.base[i], p.vlen[i] = uint32(v), uint32(n)
	}
	return p
}

// dup reports whether (key, v) is sent as a dedup PUT.
func (p *versionPlan) dup(key, v int) bool { return p.base[key] != uint32(v) }

// stamp renders the first stampLen bytes of the value written for key
// at version base.
func (d *dataset) stamp(dst []byte, key int, base, vlen uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(key))
	dst = binary.LittleEndian.AppendUint32(dst, base)
	dst = binary.LittleEndian.AppendUint32(dst, vlen)
	return binary.LittleEndian.AppendUint32(dst, uint32(d.seed)^0x51ed270b)
}

// body returns the pool slice that follows the stamp.
func (d *dataset) body(key int, base, vlen uint32) []byte {
	off := mix64(uint64(d.seed), uint64(key)<<32|uint64(base)) % uint64(poolLen-4*geometry.ValueSize)
	return d.pool[off : off+uint64(vlen)-stampLen]
}

// value materializes a whole value (the in-process ladder needs one
// contiguous slice; the live run sends stamp and body separately).
func (d *dataset) value(key, v int) []byte {
	p := d.plan(v)
	out := d.stamp(make([]byte, 0, p.vlen[key]), key, p.base[key], p.vlen[key])
	return append(out, d.body(key, p.base[key], p.vlen[key])...)
}

// check verifies a GET reply for (key, v): length and stamp always, all
// bytes when full is set.
func (d *dataset) check(got []byte, key, v int, full bool) error {
	p := d.plan(v)
	base, vlen := p.base[key], p.vlen[key]
	if len(got) != int(vlen) {
		return fmt.Errorf("key %d v%d: got %d bytes, want %d", key, v, len(got), vlen)
	}
	var st [stampLen]byte
	if !bytes.Equal(got[:stampLen], d.stamp(st[:0], key, base, vlen)) {
		return fmt.Errorf("key %d v%d: stamp mismatch", key, v)
	}
	if full && !bytes.Equal(got[stampLen:], d.body(key, base, vlen)) {
		return fmt.Errorf("key %d v%d: body mismatch", key, v)
	}
	return nil
}

func mix64(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// zipf draws key ranks with P(rank k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF; math/rand's Zipf cannot do s < 1 and the paper-style
// read skew is 0.99.
type zipf struct {
	cdf  []float64
	perm []int // rank -> key, so the hot keys are spread over the key space
	rng  *rand.Rand
}

func newZipf(n int, s float64, seed int64) *zipf {
	rng := rand.New(rand.NewSource(seed))
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n), rng: rng}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next() int {
	return z.perm[min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)]
}
