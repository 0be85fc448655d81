// Package cluster provides the in-process distributed substrate for
// architecture B (paper §2.1(b)): data is split into partitions ("Regions"
// in TiDB terms), each partition is an independent Raft group whose leader
// owns the row-store replica and whose learner applies the same log into a
// columnar replica.
//
// Real clusters span machines; here every node is in-process and the Raft
// groups share one simulated network (DESIGN.md "Substitutions"). The
// protocol costs the survey cares about — quorum round trips per write,
// asynchronous learner lag, per-partition leadership — are all preserved.
package cluster

import (
	"fmt"
	"time"

	"htap/internal/raft"
)

// Partition is one Raft-replicated shard.
type Partition struct {
	ID    int
	Group *raft.Group
}

// Leader returns the partition's current Raft leader, waiting briefly for
// an election if necessary.
func (p *Partition) Leader() *raft.Node {
	if l := p.Group.Leader(); l != nil {
		return l
	}
	return p.Group.WaitLeader(5 * time.Second)
}

// Propose replicates a command through the partition's Raft group,
// retrying through elections until it commits or the timeout expires.
// Retries back off exponentially (1ms doubling to a 50ms cap): failures
// here mean an election is in flight, and hammering the group on a fixed
// short period only adds contention while it converges.
func (p *Partition) Propose(cmd raft.Command) error {
	deadline := time.Now().Add(10 * time.Second)
	backoff := time.Millisecond
	for {
		l := p.Leader()
		if l != nil {
			if _, err := l.Propose(cmd); err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: partition %d: proposal timed out", p.ID)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
	}
}

// Cluster is a set of partitions with a routing function.
type Cluster struct {
	Partitions []*Partition
	route      func(table uint32, key int64) int
}

// Config sizes the cluster.
type Config struct {
	Partitions  int
	VotersPer   int // Raft voters per partition (TiDB default: 3)
	LearnersPer int // columnar learners per partition (TiFlash replicas)
	NetLatency  time.Duration
	// CompactEvery enables Raft log compaction per partition (entries
	// held before truncation); zero disables it.
	CompactEvery int
	// Route maps a (table, key) to a partition; nil hashes the key.
	Route func(table uint32, key int64) int
	// Apply receives each committed command, as proposed, on every replica
	// of a partition: learner distinguishes columnar learners from row
	// replicas (voters). The command format is the caller's (twopc's).
	Apply func(part, nodeID int, learner bool, cmd []byte)
}

// New builds and starts a cluster.
func New(cfg Config) *Cluster {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.VotersPer <= 0 {
		cfg.VotersPer = 3
	}
	c := &Cluster{route: cfg.Route}
	if c.route == nil {
		c.route = func(table uint32, key int64) int {
			h := uint64(key) * 0x9e3779b97f4a7c15
			return int(h % uint64(cfg.Partitions))
		}
	}
	for pid := 0; pid < cfg.Partitions; pid++ {
		pid := pid
		var apply func(nodeID int, e raft.Entry)
		if cfg.Apply != nil {
			apply = func(nodeID int, e raft.Entry) {
				cfg.Apply(pid, nodeID, nodeID >= cfg.VotersPer, []byte(e.Cmd))
			}
		}
		g := raft.NewLocalGroupWith(cfg.VotersPer, cfg.LearnersPer, cfg.NetLatency,
			raft.Config{CompactEvery: cfg.CompactEvery}, apply)
		c.Partitions = append(c.Partitions, &Partition{ID: pid, Group: g})
	}
	return c
}

// Route returns the partition owning (table, key).
func (c *Cluster) Route(table uint32, key int64) *Partition {
	return c.Partitions[c.route(table, key)]
}

// WaitReady blocks until every partition has a leader.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	for _, p := range c.Partitions {
		if p.Group.WaitLeader(timeout) == nil {
			return fmt.Errorf("cluster: partition %d has no leader", p.ID)
		}
	}
	return nil
}

// Stop shuts down all partitions.
func (c *Cluster) Stop() {
	for _, p := range c.Partitions {
		p.Group.Stop()
	}
}
