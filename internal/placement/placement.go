// Package placement is the paper's hash→group→replica math (§2.3),
// shared by the simulated Mint cluster (internal/mint) and the networked
// fleet router (internal/fleet) so both compute byte-identical answers.
// It imports nothing from either side, so a client that links it links
// no storage engine.
package placement

import (
	"hash/fnv"
	"sort"
)

// Placement maps keys to groups and replica sets: keys map to a group by
// FNV-32a modulo the group count, and within a group Replicas members
// are chosen by rendezvous (highest-random-weight) hashing over
// FNV-64a(key‖member). Both properties the paper relies on fall out of
// the math alone — groups can grow without moving stored data, and every
// router computes the same replica set without coordination.
//
// Members are identified by opaque strings (node IDs in the simulation,
// logical node names in a fleet). The zero value places with 3 replicas.
type Placement struct {
	// Replicas is how many members ReplicasFor selects (<= 0 means 3).
	Replicas int
}

// Group maps a key onto one of groups buckets. groups <= 0 returns 0.
func (p Placement) Group(key []byte, groups int) int {
	if groups <= 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(groups))
}

// score is one member's rendezvous weight for a key.
func score(key []byte, member string) uint64 {
	h := fnv.New64a()
	h.Write(key)
	h.Write([]byte(member))
	return h.Sum64()
}

// ReplicasFor ranks the group's members by descending rendezvous weight
// (ties break toward the lexically smaller member, so the order is a
// pure function of the inputs) and returns the top Replicas of them.
// The first entry is the key's primary replica.
func (p Placement) ReplicasFor(key []byte, members []string) []string {
	type scored struct {
		id string
		w  uint64
	}
	ss := make([]scored, 0, len(members))
	for _, m := range members {
		ss = append(ss, scored{m, score(key, m)})
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].w != ss[j].w {
			return ss[i].w > ss[j].w
		}
		return ss[i].id < ss[j].id
	})
	k := p.Replicas
	if k <= 0 {
		k = 3
	}
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].id
	}
	return out
}
