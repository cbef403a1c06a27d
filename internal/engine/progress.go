package engine

import (
	"fmt"
	"io"
	"sync"
)

// Source says how a job was resolved.
type Source string

const (
	// SourceSimulated jobs ran the simulator.
	SourceSimulated Source = "simulated"
	// SourceMemory jobs hit the in-memory cache, with their own result
	// or that of a job with the same simulation identity.
	SourceMemory Source = "memory"
	// SourceDisk jobs were loaded from the persistent store.
	SourceDisk Source = "disk"
	// SourceShared jobs waited on an in-flight job with the same
	// simulation identity.
	SourceShared Source = "shared"
	// SourceCanceled requests were abandoned by context cancellation
	// before a result was available.
	SourceCanceled Source = "canceled"
)

// Progress describes one resolved job. Done counts jobs resolved so far
// and Total jobs requested so far; Total grows as batches are submitted,
// and Done == Total whenever the engine is idle.
type Progress struct {
	Done, Total int
	Job         Job
	Source      Source
}

// ConsoleReporter renders engine progress as a single self-overwriting
// status line, suitable for a terminal's stderr. Its Report method is the
// Config.Progress callback; call Finish once at the end to terminate the
// status line before printing anything else.
type ConsoleReporter struct {
	mu    sync.Mutex
	w     io.Writer
	wrote bool
}

// NewConsoleReporter returns a reporter writing to w.
func NewConsoleReporter(w io.Writer) *ConsoleReporter {
	return &ConsoleReporter{w: w}
}

// Report writes the updated status line.
func (c *ConsoleReporter) Report(p Progress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrote = true
	fmt.Fprintf(c.w, "\r[%d/%d] %s under %s (%s)\x1b[K",
		p.Done, p.Total, p.Job.Bench, p.Job.Config.Name, p.Source)
}

// Finish terminates the status line, if one was written.
func (c *ConsoleReporter) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wrote {
		fmt.Fprintln(c.w)
		c.wrote = false
	}
}
