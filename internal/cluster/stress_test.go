package cluster

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentSendAccountStress exists to run under `go test -race`: it
// exercises the documented contract that Send and Account are safe for
// concurrent use within a phase. Every node's compute function fans out
// one goroutine per destination; each charges a storm of analytic traffic
// and, halfway through it, sends its one payload for the phase. The phase
// boundary then delivers, and the payloads and byte totals check that no
// concurrent update was lost. testing.Short() scales the volume down
// without skipping the scenario.
func TestConcurrentSendAccountStress(t *testing.T) {
	const nodes = 8
	const payloadLen = 64
	accountsPerGoroutine := 2_000
	if testing.Short() {
		accountsPerGoroutine = 250
	}

	c, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}

	// payload(from, to) is the pair's one message, distinct per pair.
	payload := func(from, to int) []byte {
		return bytes.Repeat([]byte{byte(from*nodes + to)}, payloadLen)
	}
	err = c.RunPhase(func(node int) error {
		var wg sync.WaitGroup
		for to := 0; to < nodes; to++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < accountsPerGoroutine; i++ {
					if i == accountsPerGoroutine/2 && to != node {
						c.Send(node, to, payload(node, to))
					}
					c.Account(node, 16, 1)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every node heard from its nodes-1 peers, in sender order.
	for node := 0; node < nodes; node++ {
		delivered := c.Recv(node)
		if len(delivered) != nodes-1 {
			t.Fatalf("node %d: got %d sender buffers, want %d", node, len(delivered), nodes-1)
		}
		for i, buf := range delivered {
			from := i
			if from >= node {
				from++
			}
			if !bytes.Equal(buf, payload(from, node)) {
				t.Fatalf("node %d: payload from node %d is %d bytes %x…, want node %d's (concurrent Send lost data)",
					node, from, len(buf), buf[:min(len(buf), 4)], from)
			}
		}
	}

	// The analytic traffic must also have been tallied without loss: the
	// phase report's bytes include both payloads and Account charges.
	rep := c.Report()
	accounts := int64(nodes * nodes * accountsPerGoroutine)
	wantBytes := int64(nodes*(nodes-1)*payloadLen) + 16*accounts
	if rep.BytesSent != wantBytes {
		t.Fatalf("report counts %d bytes sent, want %d (concurrent Account lost updates)", rep.BytesSent, wantBytes)
	}
	if wantMsgs := int64(nodes*(nodes-1)) + accounts; rep.MessagesSent != wantMsgs {
		t.Fatalf("report counts %d messages sent, want %d", rep.MessagesSent, wantMsgs)
	}
}
