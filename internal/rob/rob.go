// Package rob implements the reorder buffer and the wrap-extended age
// identifiers used by the paper's selection logic.
//
// The paper encodes instruction age as the reorder-buffer position with one
// extra wrap bit concatenated on the left, reset each time the first ROB
// position is allocated; concatenating this identifier to the right of the
// compressed latency code lets a plain minimum-select circuit pick the
// oldest instruction of the highest-priority class. We reproduce the same
// encoding: AgeID = allocation counter modulo 2*capacity, compared
// modularly (valid because at most `capacity` instructions are in flight).
package rob

import "distiq/internal/isa"

// ROB is a circular reorder buffer of instructions.
type ROB struct {
	entries []*isa.Inst
	head    int
	count   int
	alloc   uint32 // running allocation counter (mod 2*cap gives AgeID)
	ageMask uint32
	ageHalf uint32
}

// New returns a reorder buffer with the given capacity (a power of two).
func New(capacity int) *ROB {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("rob: capacity must be a positive power of two")
	}
	return &ROB{
		entries: make([]*isa.Inst, capacity),
		ageMask: uint32(2*capacity - 1),
		ageHalf: uint32(capacity),
	}
}

// Cap returns the capacity.
func (r *ROB) Cap() int { return len(r.entries) }

// Len returns the number of instructions in flight.
func (r *ROB) Len() int { return r.count }

// Full reports whether no entry is free.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports whether the buffer is empty.
func (r *ROB) Empty() bool { return r.count == 0 }

// Alloc appends in at the tail, filling in in.AgeID, and reports success
// (false when full).
func (r *ROB) Alloc(in *isa.Inst) bool {
	if r.Full() {
		return false
	}
	idx := (r.head + r.count) % len(r.entries)
	r.entries[idx] = in
	in.AgeID = r.alloc & r.ageMask
	r.alloc++
	r.count++
	return true
}

// Head returns the oldest instruction, or nil when empty.
func (r *ROB) Head() *isa.Inst {
	if r.count == 0 {
		return nil
	}
	return r.entries[r.head]
}

// Pop removes and returns the oldest instruction; nil when empty.
func (r *ROB) Pop() *isa.Inst {
	if r.count == 0 {
		return nil
	}
	in := r.entries[r.head]
	r.entries[r.head] = nil
	r.head = (r.head + 1) % len(r.entries)
	r.count--
	return in
}

// Older reports whether age identifier a is strictly older than b under
// the modular wrap-bit encoding. Valid while both instructions are in
// flight simultaneously (their allocation distance is below capacity).
func (r *ROB) Older(a, b uint32) bool {
	if a == b {
		return false
	}
	return (b-a)&r.ageMask < r.ageHalf
}
