package twopc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// This file is the protocol itself: CommitAll sequences prepare → decide →
// commit over opaque transaction branches, and is the only place that does.
// A branch may be one Raft-replicated partition of an engine (raftBranch,
// behind Coordinator), a pinned client connection whose Prepare is a wire
// round-trip, or a local engine transaction whose Prepare is a no-op
// because its writes were validated on the way in (the distributed
// coordinator's shards).

// TxParticipant is one branch of a distributed transaction. Prepare must
// leave the branch able to either Commit or Abort regardless of what other
// branches decide; after Prepare succeeds, Commit may only fail for
// reasons that leave the outcome unknown (a lost ack, a crashed peer) —
// never because validation ran late.
type TxParticipant interface {
	// Name identifies the branch in errors and logs (e.g. "shard-2").
	Name() string
	// Prepare validates the branch and persists its writes as pending.
	Prepare(ctx context.Context) error
	// Commit makes the prepared writes durable and visible.
	Commit(ctx context.Context) error
	// Abort discards the branch. Best-effort: locks it fails to release
	// die with their transaction's lease, so errors are not reported.
	Abort(ctx context.Context)
}

// ErrIndeterminate is the sentinel matched by errors.Is for commit
// outcomes the coordinator cannot know. It mirrors the client's
// CommitIndeterminateError contract: not safe to retry, because some
// branches may have committed.
var ErrIndeterminate = errors.New("twopc: commit outcome indeterminate")

// IndeterminateError reports a distributed commit whose point of no
// return was passed but whose branches did not all acknowledge. The
// transaction is committed on Committed branches; Failed branches hold
// the commit record in their replicated log (or their prepared state) and
// converge on recovery — the data never diverges, only the coordinator's
// knowledge of it.
type IndeterminateError struct {
	Committed []string // branches that acknowledged the commit
	Failed    []string // branches whose acknowledgement was lost
	Cause     error    // first failure observed
}

func (e *IndeterminateError) Error() string {
	return fmt.Sprintf("twopc: commit outcome indeterminate (committed: %s; unacked: %s): %v",
		strings.Join(e.Committed, ","), strings.Join(e.Failed, ","), e.Cause)
}

func (e *IndeterminateError) Is(target error) bool { return target == ErrIndeterminate }
func (e *IndeterminateError) Unwrap() error        { return e.Cause }

// CommitAll drives two-phase commit across the branches of one
// distributed transaction.
//
// A single branch skips the prepare round entirely — its own Commit
// carries the one-shot semantics, and its error (including an
// indeterminate one from a remote branch) passes through unchanged.
//
// With multiple branches, phase one prepares all of them in parallel; any
// prepare failure aborts every branch and returns that failure, which is
// safe to retry because nothing committed. Phase two is the point of no
// return: the commit decision is delivered to every branch concurrently,
// and a branch that fails to acknowledge yields an IndeterminateError
// listing branches in the order given — every branch is still driven to
// commit (its prepared state must resolve), and the caller must surface
// the unknown outcome rather than retry.
func CommitAll(ctx context.Context, branches ...TxParticipant) error {
	switch len(branches) {
	case 0:
		return nil
	case 1:
		return branches[0].Commit(ctx)
	}

	// Phase 1: prepare everywhere.
	errs := make([]error, len(branches))
	each(branches, func(i int, b TxParticipant) { errs[i] = b.Prepare(ctx) })
	prepErr := errors.Join(errs...)
	if prepErr == nil {
		// Last chance to walk away: a cancelled caller aborts cleanly
		// here, never mid-commit.
		prepErr = ctx.Err()
	}
	// Past this point the decision is made and must reach every branch even
	// if the caller's context dies — a prepared branch left undecided holds
	// its locks until recovery.
	dctx := context.WithoutCancel(ctx)
	if prepErr != nil {
		each(branches, func(_ int, b TxParticipant) { b.Abort(dctx) })
		return prepErr
	}

	// Phase 2: commit everywhere.
	each(branches, func(i int, b TxParticipant) { errs[i] = b.Commit(dctx) })
	for _, err := range errs {
		if err != nil {
			return indeterminate(branches, errs)
		}
	}
	return nil
}

// indeterminate reports which branches acknowledged the commit decision and
// which did not, in branch order.
func indeterminate(branches []TxParticipant, errs []error) error {
	ind := &IndeterminateError{}
	for i, b := range branches {
		if errs[i] == nil {
			ind.Committed = append(ind.Committed, b.Name())
			continue
		}
		ind.Failed = append(ind.Failed, b.Name())
		if ind.Cause == nil {
			ind.Cause = errs[i]
		}
	}
	return ind
}

// each runs fn on every branch concurrently and returns when all are done.
func each(branches []TxParticipant, fn func(i int, b TxParticipant)) {
	var wg sync.WaitGroup
	for i, b := range branches {
		wg.Add(1)
		go func(i int, b TxParticipant) {
			defer wg.Done()
			fn(i, b)
		}(i, b)
	}
	wg.Wait()
}
