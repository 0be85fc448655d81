package cluster

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"htap/internal/raft"
)

// keyCmd is a command naming one key; the cluster replicates it unread.
func keyCmd(key int64) raft.Command { return binary.AppendVarint(nil, key) }

func TestClusterRoutingDeterministic(t *testing.T) {
	c := New(Config{Partitions: 4, VotersPer: 1})
	defer c.Stop()
	for key := int64(0); key < 100; key++ {
		p1 := c.Route(1, key)
		p2 := c.Route(1, key)
		if p1 != p2 {
			t.Fatalf("routing unstable for key %d", key)
		}
	}
}

func TestClusterReplicatesToRowAndColumnReplicas(t *testing.T) {
	type applyEvent struct {
		part    int
		learner bool
		key     int64
	}
	var mu sync.Mutex
	var events []applyEvent
	c := New(Config{
		Partitions: 2, VotersPer: 3, LearnersPer: 1,
		Route: func(table uint32, key int64) int { return int(key % 2) },
		Apply: func(part, nodeID int, learner bool, cmd []byte) {
			key, _ := binary.Varint(cmd)
			mu.Lock()
			events = append(events, applyEvent{part, learner, key})
			mu.Unlock()
		},
	})
	defer c.Stop()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for key := int64(0); key < 4; key++ {
		p := c.Route(1, key)
		if err := p.Propose(keyCmd(key)); err != nil {
			t.Fatalf("propose key %d: %v", key, err)
		}
	}
	// Each key applies on 3 voters + 1 learner of its partition.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n >= 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d apply events", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	perPart := map[int]int{}
	learnerSeen := 0
	for _, e := range events {
		if e.part != int(e.key%2) {
			t.Fatalf("key %d applied on partition %d", e.key, e.part)
		}
		perPart[e.part]++
		if e.learner {
			learnerSeen++
		}
	}
	if learnerSeen < 4 {
		t.Fatalf("learner applies = %d, want >= 4", learnerSeen)
	}
}

func TestProposeSurvivesLeaderChange(t *testing.T) {
	c := New(Config{Partitions: 1, VotersPer: 3})
	defer c.Stop()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p := c.Partitions[0]
	l := p.Leader()
	p.Group.Net.Isolate(l.Status().ID, true)
	defer p.Group.Net.Isolate(l.Status().ID, false)
	if err := p.Propose(keyCmd(1)); err != nil {
		t.Fatalf("propose after leader isolation: %v", err)
	}
}
