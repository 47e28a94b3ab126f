package machine

import "testing"

func numaMachine(ncpu, nodes int) *Machine {
	cfg := DefaultConfig()
	cfg.NumCPUs = ncpu
	cfg.Nodes = nodes
	cfg.MemBytes = 8 << 20
	cfg.PhysPages = 512
	return New(cfg)
}

func TestNodeAssignmentContiguous(t *testing.T) {
	m := numaMachine(8, 4)
	if m.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	for i := 0; i < 8; i++ {
		want := i / 2 // contiguous blocks of two CPUs per node
		if got := m.NodeOf(i); got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", i, got, want)
		}
		if got := m.CPU(i).Node(); got != want {
			t.Fatalf("CPU(%d).Node() = %d, want %d", i, got, want)
		}
	}
	// Uneven division still assigns every CPU a valid node, in order.
	m = numaMachine(6, 4)
	prev := 0
	for i := 0; i < 6; i++ {
		n := m.NodeOf(i)
		if n < prev || n >= 4 {
			t.Fatalf("NodeOf(%d) = %d (prev %d)", i, n, prev)
		}
		prev = n
	}
	if m.NodeOf(5) != 3 {
		t.Fatalf("last CPU on node %d, want 3", m.NodeOf(5))
	}
}

func TestNodesConfigValidation(t *testing.T) {
	for _, bad := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Nodes=%d with 4 CPUs accepted", bad)
				}
			}()
			cfg := DefaultConfig()
			cfg.NumCPUs = 4
			cfg.Nodes = bad
			cfg.MemBytes = 8 << 20
			New(cfg)
		}()
	}
	// Zero defaults to one node.
	cfg := DefaultConfig()
	cfg.NumCPUs = 2
	cfg.Nodes = 0
	cfg.MemBytes = 8 << 20
	if m := New(cfg); m.NumNodes() != 1 {
		t.Fatalf("Nodes=0 gave %d nodes", m.NumNodes())
	}
}

func TestRemoteMetaMissCostsMore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs = 2
	cfg.Nodes = 2
	cfg.MemBytes = 8 << 20
	m := New(cfg)
	c := m.CPU(0) // node 0

	local := m.NewMetaLineOn(0)
	remote := m.NewMetaLineOn(1)

	start := c.Now()
	c.Read(local)
	localCost := c.Now() - start

	start = c.Now()
	c.Read(remote)
	remoteCost := c.Now() - start

	if want := localCost + RemoteMissCycles; remoteCost != want {
		t.Fatalf("remote cold miss cost %d, local %d, want remote = local+%d",
			remoteCost, localCost, RemoteMissCycles)
	}
	if got := m.InterconnectTransactions(); got != 1 {
		t.Fatalf("interconnect transactions = %d, want 1 (remote miss only)", got)
	}
	if got := c.Stats().RemoteMisses; got != 1 {
		t.Fatalf("remote misses = %d, want 1", got)
	}
}

func TestSingleNodeNoInterconnectTraffic(t *testing.T) {
	m := numaMachine(2, 1)
	c0, c1 := m.CPU(0), m.CPU(1)
	l := m.LineOf(0x4000)
	// Ping-pong ownership: heavy bus traffic, but with one node none of
	// it can be remote.
	for i := 0; i < 32; i++ {
		c0.Write(l)
		c1.Write(l)
	}
	if got := m.InterconnectTransactions(); got != 0 {
		t.Fatalf("interconnect transactions = %d on a 1-node machine", got)
	}
	if got := c0.Stats().RemoteMisses + c1.Stats().RemoteMisses; got != 0 {
		t.Fatalf("remote misses = %d on a 1-node machine", got)
	}
}

func TestCrossNodeOwnershipTransferUsesInterconnect(t *testing.T) {
	m := numaMachine(4, 2)
	c0, c2 := m.CPU(0), m.CPU(2) // nodes 0 and 1
	l := m.NewMetaLineOn(0)

	c0.Write(l) // node-local cold miss
	icBefore := m.InterconnectTransactions()
	if icBefore != 0 {
		t.Fatalf("local miss crossed the interconnect (%d txns)", icBefore)
	}
	c2.Read(l) // home and exclusive owner both on node 0: remote
	if got := m.InterconnectTransactions(); got != 1 {
		t.Fatalf("interconnect transactions = %d after cross-node read, want 1", got)
	}
	if got := c2.Stats().RemoteMisses; got != 1 {
		t.Fatalf("c2 remote misses = %d, want 1", got)
	}
}

func TestPerNodeBusesSplitTraffic(t *testing.T) {
	m := numaMachine(4, 2)
	// Each node hammers a line homed on its own bus: both buses see
	// transactions, the interconnect sees none.
	l0 := m.NewMetaLineOn(0)
	l1 := m.NewMetaLineOn(1)
	for i := 0; i < 16; i++ {
		m.CPU(0).Write(l0)
		m.CPU(1).Write(l0)
		m.CPU(2).Write(l1)
		m.CPU(3).Write(l1)
	}
	if m.NodeBusTransactions(0) == 0 || m.NodeBusTransactions(1) == 0 {
		t.Fatalf("bus txns = %d/%d, want both nonzero",
			m.NodeBusTransactions(0), m.NodeBusTransactions(1))
	}
	if got := m.InterconnectTransactions(); got != 0 {
		t.Fatalf("interconnect transactions = %d for node-local traffic", got)
	}
	if sum := m.NodeBusTransactions(0) + m.NodeBusTransactions(1); sum != m.BusTransactions() {
		t.Fatalf("per-node sums %d != total %d", sum, m.BusTransactions())
	}
}
