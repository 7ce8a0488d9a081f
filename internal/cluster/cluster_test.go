package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func testConfig(nodes int) Config {
	return Config{Nodes: nodes, Comm: MPI(), MemoryPerNode: 1 << 30}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := New(Config{Nodes: 2, WorkersPerNode: ThreadsPerNode + 1}); err == nil {
		t.Error("accepted workers > threads")
	}
	if _, err := New(Config{Nodes: 2, Comm: CommLayer{Bandwidth: -1}}); err == nil {
		t.Error("accepted negative bandwidth")
	}
}

func TestDefaults(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.WorkersPerNode != ThreadsPerNode {
		t.Errorf("defaults: workers=%d, want all %d threads", cfg.WorkersPerNode, ThreadsPerNode)
	}
	if cfg.Comm.Name != "mpi" {
		t.Errorf("default comm = %q", cfg.Comm.Name)
	}
}

func TestMessageDelivery(t *testing.T) {
	c, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: node 0 sends to 1 and 2; node 2 sends to itself.
	err = c.RunPhase(func(n int) error {
		switch n {
		case 0:
			c.Send(0, 1, []byte("to-one"))
			c.Send(0, 2, []byte("to-two"))
		case 2:
			c.Send(2, 2, []byte("self"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Recv(0); len(got) != 0 {
		t.Errorf("node 0 received %v, want nothing", got)
	}
	if got := c.Recv(1); len(got) != 1 || string(got[0]) != "to-one" {
		t.Errorf("node 1 received %q", got)
	}
	got2 := c.Recv(2)
	if len(got2) != 2 {
		t.Fatalf("node 2 received %d payloads, want 2", len(got2))
	}
	// Self-sends are delivered but not charged.
	r := c.Report()
	if r.BytesSent != int64(len("to-one")+len("to-two")) {
		t.Errorf("BytesSent = %d, want %d", r.BytesSent, len("to-one")+len("to-two"))
	}
	if r.MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", r.MessagesSent)
	}
}

func TestSendAppends(t *testing.T) {
	c, _ := New(testConfig(2))
	if err := c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, []byte("ab"))
			c.Send(0, 1, []byte("cd"))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := c.Recv(1)
	if len(got) != 1 || string(got[0]) != "abcd" {
		t.Errorf("Recv = %q, want one payload \"abcd\"", got)
	}
}

func TestInboxClearedBetweenPhases(t *testing.T) {
	c, _ := New(testConfig(2))
	_ = c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, []byte("x"))
		}
		return nil
	})
	_ = c.RunPhase(func(n int) error { return nil })
	if got := c.Recv(1); len(got) != 0 {
		t.Errorf("stale inbox: %q", got)
	}
}

func TestComputeErrorAborts(t *testing.T) {
	c, _ := New(testConfig(2))
	wantErr := errors.New("boom")
	err := c.RunPhase(func(n int) error {
		if n == 1 {
			return wantErr
		}
		return nil
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("RunPhase error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("error %q does not identify the node", err)
	}
}

func TestNetworkTimeModel(t *testing.T) {
	// 1 MB over a 1 MB/s link with zero latency must cost ~1 virtual
	// second.
	cfg := Config{Nodes: 2, Comm: CommLayer{Name: "slow", Bandwidth: 1e6}}
	c, _ := New(cfg)
	payload := make([]byte, 1e6)
	if err := c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.NetworkSeconds < 0.99 || r.NetworkSeconds > 1.01 {
		t.Errorf("NetworkSeconds = %v, want ≈1", r.NetworkSeconds)
	}
	if r.SimulatedSeconds < r.NetworkSeconds {
		t.Errorf("SimulatedSeconds %v below network time %v", r.SimulatedSeconds, r.NetworkSeconds)
	}
	if r.PeakNetworkBandwidth < 0.99e6 || r.PeakNetworkBandwidth > 1.01e6 {
		t.Errorf("PeakNetworkBandwidth = %v, want ≈1e6", r.PeakNetworkBandwidth)
	}
}

func TestOverlapReducesWall(t *testing.T) {
	payload := make([]byte, 1e6)
	spin := func(n int) error {
		if n == 0 {
			deadline := time.Now().Add(20 * time.Millisecond)
			for time.Now().Before(deadline) {
			}
		}
		return nil
	}
	run := func(overlap bool) float64 {
		cfg := Config{Nodes: 2, Overlap: overlap,
			Comm: CommLayer{Name: "slow", Bandwidth: 50e6}} // 20ms for 1MB
		c, _ := New(cfg)
		_ = c.RunPhase(func(n int) error {
			if err := spin(n); err != nil {
				return err
			}
			if n == 0 {
				c.Send(0, 1, payload)
			}
			return nil
		})
		return c.Report().SimulatedSeconds
	}
	seq := run(false)
	ovl := run(true)
	if ovl >= seq*0.8 {
		t.Errorf("overlap %vs not clearly below sequential %vs", ovl, seq)
	}
}

func TestAccount(t *testing.T) {
	c, _ := New(testConfig(2))
	if err := c.RunPhase(func(n int) error {
		if n == 1 {
			c.Account(1, 5000, 3)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.BytesSent != 5000 || r.MessagesSent != 3 {
		t.Errorf("accounted traffic = %d bytes / %d msgs", r.BytesSent, r.MessagesSent)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c, _ := New(testConfig(2))
	c.SetBaselineMemory(0, 1000)
	c.SetBaselineMemory(1, 500)
	payload := make([]byte, 2048)
	_ = c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, payload)
		}
		return nil
	})
	r := c.Report()
	// Node 0's high water: baseline 1000 + 2048 outbox.
	if r.MemoryFootprintBytes < 3000 {
		t.Errorf("MemoryFootprintBytes = %d, want ≥ 3048", r.MemoryFootprintBytes)
	}
	if f := r.MemoryFraction(); f <= 0 || f >= 1 {
		t.Errorf("MemoryFraction = %v", f)
	}
}

func TestCPUUtilizationModel(t *testing.T) {
	// A quarter of the ThreadsPerNode threads busy, pure compute → util ≈ 25%.
	cfg := Config{Nodes: 1, WorkersPerNode: ThreadsPerNode / 4, Comm: MPI()}
	c, _ := New(cfg)
	_ = c.RunPhase(func(n int) error {
		deadline := time.Now().Add(10 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
		return nil
	})
	r := c.Report()
	if r.CPUUtilization < 0.2 || r.CPUUtilization > 0.3 {
		t.Errorf("CPUUtilization = %v, want ≈0.25", r.CPUUtilization)
	}
}

func TestPhasesCounter(t *testing.T) {
	c, _ := New(testConfig(1))
	for i := 0; i < 3; i++ {
		if err := c.RunPhase(func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.phases != 3 {
		t.Errorf("Phases = %d, want 3", c.phases)
	}
}

func TestCommPresets(t *testing.T) {
	mpi, ms, ipoib, ss, netty := MPI(), MultiSocket(), IPoIBSockets(), SingleSocket(), Netty()
	if !(mpi.Bandwidth > ms.Bandwidth && ms.Bandwidth > ipoib.Bandwidth && ipoib.Bandwidth > ss.Bandwidth && ss.Bandwidth > netty.Bandwidth) {
		t.Error("comm preset bandwidth ordering violated")
	}
	if netty.Latency <= mpi.Latency {
		t.Error("netty latency should exceed MPI latency")
	}
}
