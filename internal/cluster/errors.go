package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file defines the typed failure modes of the scatter-gather path,
// extending the serve-layer contract (DESIGN.md §10) across partitions:
// every way a fan-out can fail is a distinguishable error matched with
// errors.Is, and a degraded answer is an answer plus a typed error — a
// caller that ignores ErrPartialResult gets the best available data, a
// caller that checks it knows exactly which partitions are missing.

var (
	// ErrPartialResult marks a degraded response: one or more partitions
	// were unreachable past their retry and deadline budgets, and the
	// answer was recomputed over the surviving partitions' data. The
	// concrete error is a *PartialResultError naming the missing
	// partitions.
	ErrPartialResult = errors.New("cluster: partial result")
	// ErrPartitionUnavailable reports that a partition could not be
	// reached: the transport refused the send (a downed or flapping
	// partition) or the coordinator already marked it dead for this
	// request.
	ErrPartitionUnavailable = errors.New("cluster: partition unavailable")
	// ErrGenMismatch reports that a partition's snapshot generation no
	// longer matches the generation pinned at the start of the request —
	// the all-or-nothing batch pin. It is never retried against the same
	// pin (retrying cannot help); the coordinator re-pins and restarts
	// the request once, and fails it with an error wrapping this one
	// when the re-pinned attempt flips too.
	ErrGenMismatch = errors.New("cluster: generation pin mismatch")
)

// PartialResultError is the concrete ErrPartialResult: which partitions'
// data is missing from the answer, out of how many, and the underlying
// failure (if the degraded recompute itself also failed). It implements
// RequestOutcome so serve.Outcome classifies degraded responses as
// "partial" in metrics and wide events.
type PartialResultError struct {
	// Missing holds the ids of the partitions absent from the answer,
	// ascending.
	Missing []int
	// Partitions is the fan-out width (total partition count).
	Partitions int
	// Cause is the degraded recompute's own error, when it too failed;
	// nil when the surviving partitions produced a usable answer.
	Cause error
}

func (e *PartialResultError) Error() string {
	msg := fmt.Sprintf("cluster: partial result: missing partition(s) %s of %d",
		e.MissingList(), e.Partitions)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Is matches the ErrPartialResult sentinel.
func (e *PartialResultError) Is(target error) bool { return target == ErrPartialResult }

// Unwrap exposes the degraded recompute's own failure, when any.
func (e *PartialResultError) Unwrap() error { return e.Cause }

// RequestOutcome implements the serve.Outcome hook: degraded responses
// are "partial" in the wide-event outcome vocabulary.
func (e *PartialResultError) RequestOutcome() string { return "partial" }

// MissingList renders the missing partition ids as a comma-joined
// string — the wide event's missing_partitions field.
func (e *PartialResultError) MissingList() string {
	ids := make([]string, len(e.Missing))
	for i, p := range e.Missing {
		ids[i] = strconv.Itoa(p)
	}
	return strings.Join(ids, ",")
}
