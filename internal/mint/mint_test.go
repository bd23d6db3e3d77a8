package mint

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/core"
)

func testConfig() Config {
	return Config{
		Groups:        3,
		NodesPerGroup: 4,
		Replicas:      3,
		NodeCapacity:  64 << 20,
		Factory: failableFactory(QinDBFactory(core.Options{
			AOF:  aof.Config{FileSize: 1 << 20, GCThreshold: 0.25},
			Seed: 1,
		})),
	}
}

var errNodeDown = errors.New("node down")

// failableEngine is a node engine a test can fail: once down, every Put
// and Get errors, as a crashed node's requests would.
type failableEngine struct {
	Engine
	down bool
}

func (e *failableEngine) Put(key []byte, version uint64, value []byte, dedup bool) error {
	if e.down {
		return errNodeDown
	}
	return e.Engine.Put(key, version, value, dedup)
}

func (e *failableEngine) Get(key []byte, version uint64) ([]byte, error) {
	if e.down {
		return nil, errNodeDown
	}
	return e.Engine.Get(key, version)
}

func failableFactory(f EngineFactory) EngineFactory {
	return func(capacity, seed int64) (*EngineStack, error) {
		stack, err := f(capacity, seed)
		if err != nil {
			return nil, err
		}
		stack.Engine = &failableEngine{Engine: stack.Engine}
		return stack, nil
	}
}

// fail takes a node down.
func fail(n *Node) { n.db.(*failableEngine).down = true }

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Groups: 0}); err == nil {
		t.Fatal("zero groups should fail")
	}
	if _, err := New(Config{Groups: 1, NodesPerGroup: 2, Replicas: 3}); err == nil {
		t.Fatal("fewer nodes than replicas should fail")
	}
	if _, err := New(Config{Groups: 1, NodesPerGroup: 3, Replicas: 3}); err == nil {
		t.Fatal("a nil engine factory should fail")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("url/%04d", i))
		if _, err := c.Put(key, 1, []byte(fmt.Sprintf("val-%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("url/%04d", i))
		val, err := c.Get(key, 1)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if string(val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q", key, val)
		}
	}
}

func TestReplication3x(t *testing.T) {
	c := newTestCluster(t)
	key := []byte("replicated-key")
	if _, err := c.Put(key, 1, []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	// Exactly Replicas nodes of the key's group hold the pair.
	holders := 0
	for _, g := range c.groups {
		for _, n := range g.Nodes {
			if _, err := n.db.Get(key, 1); err == nil {
				holders++
				if g.ID != c.place.Group(key, len(c.groups)) {
					t.Fatal("replica outside the key's group")
				}
			}
		}
	}
	if holders != 3 {
		t.Fatalf("replicas = %d, want 3 (paper: three replicates)", holders)
	}
}

func TestGroupPlacementStable(t *testing.T) {
	c := newTestCluster(t)
	key := []byte("stable-key")
	before := c.place.Group(key, len(c.groups))
	// Adding nodes to any group must not change group placement.
	if _, err := c.AddNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode(2); err != nil {
		t.Fatal(err)
	}
	if c.place.Group(key, len(c.groups)) != before {
		t.Fatal("group placement changed after adding nodes")
	}
}

func TestReadAfterNodeAddition(t *testing.T) {
	// The no-redistribution property: data written before a group grows
	// is still readable afterwards.
	c := newTestCluster(t)
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key/%05d", i))
		if _, err := c.Put(keys[i], 1, []byte("before-grow"), false); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < c.Groups(); g++ {
		if _, err := c.AddNode(g); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		val, err := c.Get(key, 1)
		if err != nil || string(val) != "before-grow" {
			t.Fatalf("Get(%s) after growth: %q, %v", key, val, err)
		}
	}
}

func TestFailureMasking(t *testing.T) {
	c := newTestCluster(t)
	key := []byte("ha-key")
	c.Put(key, 1, []byte("v"), false)
	// Fail one replica: reads keep working.
	replicas := c.replicasFor(key, c.GroupFor(key))
	fail(replicas[0])
	if val, err := c.Get(key, 1); err != nil || string(val) != "v" {
		t.Fatalf("Get with 1 failed replica: %q, %v", val, err)
	}
	// Fail a second: still one live replica.
	fail(replicas[1])
	if _, err := c.Get(key, 1); err != nil {
		t.Fatalf("Get with 2 failed replicas: %v", err)
	}
	// Writes now miss quorum (2 of 3 replicas down).
	if _, err := c.Put(key, 2, []byte("v2"), false); !errors.Is(err, ErrQuorum) {
		t.Fatalf("Put should fail quorum, got %v", err)
	}
}

func TestParallelReadHidesRecovery(t *testing.T) {
	// With one replica failed, a read still fans out to the live ones:
	// each of them serves it from its own device, so the answer does not
	// wait on the failed node.
	c := newTestCluster(t)
	key := []byte("latency-key")
	val := bytes.Repeat([]byte{9}, 20<<10)
	c.Put(key, 1, val, false)
	replicas := c.replicasFor(key, c.GroupFor(key))
	fail(replicas[0])
	before := make([]time.Duration, len(replicas))
	for i, n := range replicas {
		before[i] = n.dev.Now()
	}
	got, err := c.Get(key, 1)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("degraded Get = %d bytes, %v", len(got), err)
	}
	for i, n := range replicas[1:] {
		if n.dev.Now() == before[i+1] {
			t.Fatalf("live replica %s did not serve the fanned-out read", n.ID)
		}
	}
}

func TestDelAndDropVersion(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("k/%03d", i))
		c.Put(key, 1, []byte("v1"), false)
		c.Put(key, 2, []byte("v2"), false)
	}
	n, err := c.DropVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("DropVersion dropped nothing")
	}
	if _, err := c.Get([]byte("k/011"), 1); err == nil {
		t.Fatal("dropped version readable")
	}
	if _, err := c.Get([]byte("k/011"), 2); err != nil {
		t.Fatalf("v2 lost: %v", err)
	}
}

func TestDedupAcrossCluster(t *testing.T) {
	c := newTestCluster(t)
	key := []byte("dedup/key")
	val := bytes.Repeat([]byte{7}, 4096)
	c.Put(key, 1, val, false)
	c.Put(key, 2, nil, true) // deduplicated: value lives at v1
	got, err := c.Get(key, 2)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("dedup Get via cluster = %d bytes, %v", len(got), err)
	}
}

func TestAddNodeBadGroup(t *testing.T) {
	c := newTestCluster(t)
	if _, err := c.AddNode(-1); err == nil {
		t.Fatal("negative group should fail")
	}
	if _, err := c.AddNode(99); err == nil {
		t.Fatal("out-of-range group should fail")
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("factory exploded")
	_, err := New(Config{
		Groups: 1, NodesPerGroup: 3, Replicas: 3,
		Factory: func(capacity, seed int64) (*EngineStack, error) { return nil, boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want factory error", err)
	}
}

func TestGetAllReplicasDown(t *testing.T) {
	c := newTestCluster(t)
	key := []byte("doomed")
	c.Put(key, 1, []byte("v"), false)
	for _, n := range c.GroupFor(key).Nodes {
		fail(n)
	}
	if _, err := c.Get(key, 1); !errors.Is(err, errNodeDown) {
		t.Fatalf("Get with every node down = %v, want the nodes' error", err)
	}
}

func TestGroupForStability(t *testing.T) {
	c := newTestCluster(t)
	g1 := c.GroupFor([]byte("stable"))
	g2 := c.GroupFor([]byte("stable"))
	if g1 != g2 {
		t.Fatal("GroupFor must be deterministic")
	}
}

// TestPutCostIsSlowestDeviceDelta: a Put costs exactly how far it
// advanced its slowest acked replica's device clock, also when it fills a
// node's AOF file and the rotation programs that file's partial tail page
// as it closes.
func TestPutCostIsSlowestDeviceDelta(t *testing.T) {
	c, err := New(Config{
		Groups:        1,
		NodesPerGroup: 3,
		Replicas:      3,
		NodeCapacity:  64 << 20,
		Factory: QinDBFactory(core.Options{
			AOF:  aof.Config{FileSize: 64 << 10, GCThreshold: 0.25},
			Seed: 1,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nodes := c.groups[0].Nodes
	files := func() int { return nodes[0].db.(QinDBEngine).Stats().Store.Files }
	filesBefore := files()
	val := bytes.Repeat([]byte{7}, 5000) // no page multiple: a closing file has a partial tail page
	start := make([]time.Duration, len(nodes))
	for i := 0; i < 40; i++ {
		for j, n := range nodes {
			start[j] = n.dev.Now()
		}
		cost, err := c.Put([]byte(fmt.Sprintf("key/%03d", i)), 1, val, false)
		if err != nil {
			t.Fatal(err)
		}
		var want time.Duration
		for j, n := range nodes {
			want = max(want, n.dev.Now()-start[j])
		}
		if cost != want {
			t.Fatalf("Put %d cost %v, slowest replica's device advanced %v", i, cost, want)
		}
	}
	if files() <= filesBefore {
		t.Fatalf("AOF files %d -> %d: no Put rotated a file", filesBefore, files())
	}
}
