package study

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"distiq/internal/client"
	"distiq/internal/engine"
)

// Result is a finished study: a deterministic table (pre-formatted
// fixed-point cells, so documents are byte-identical across substrates
// and reruns) plus the evaluated jobs/results for manifest building and
// the resolution counts of the run.
type Result struct {
	// Name and Mode echo the spec.
	Name string
	Mode string
	// Columns names the table columns; Rows holds one pre-formatted cell
	// per column, in deterministic order.
	Columns []string
	Rows    [][]string
	// numeric marks columns whose cells are fixed-point numbers (emitted
	// as JSON numbers rather than strings).
	numeric []bool
	// Counts aggregates how the study's points were resolved; a warm
	// rerun shows Simulated == 0.
	Counts client.Counts
	// Jobs and Results list every evaluated point in plan order, the
	// input to a tamper-evident manifest.
	Jobs    []engine.Job
	Results []engine.Result
}

// CSV renders the study table as comma-separated values with a header
// row.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the study table as a GitHub-flavored markdown table.
func (r *Result) Markdown() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "### %s\n\n", r.Name)
	}
	b.WriteString("| " + strings.Join(r.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(r.Columns)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// JSON renders the study as an indented JSON document: name, mode and
// one object per row keyed by column name. Numeric cells are emitted as json.Number wrapping the exact
// fixed-point bytes of the table, so the JSON document is as
// byte-deterministic as the CSV one. Run-varying counters are excluded;
// read Counts (or the CLI's stderr summary) for resolution counts.
func (r *Result) JSON() ([]byte, error) {
	type doc struct {
		Name string           `json:"name,omitempty"`
		Mode string           `json:"mode"`
		Rows []map[string]any `json:"rows"`
	}
	d := doc{Name: r.Name, Mode: r.Mode}
	for _, row := range r.Rows {
		m := make(map[string]any, len(r.Columns))
		for i, col := range r.Columns {
			if i < len(r.numeric) && r.numeric[i] {
				m[col] = json.Number(row[i])
			} else {
				m[col] = row[i]
			}
		}
		d.Rows = append(d.Rows, m)
	}
	return json.MarshalIndent(d, "", "  ")
}

// Emit writes the study to w in the named format. cmd/iqstudy funnels
// local and -server runs through this one function, so a given study
// emits byte-identical documents whichever substrate ran it. The JSON document gains a trailing newline,
// matching the sweep emitters.
func (r *Result) Emit(w io.Writer, format string) error {
	switch format {
	case "csv":
		_, err := io.WriteString(w, r.CSV())
		return err
	case "json":
		data, err := r.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	case "md", "markdown":
		_, err := io.WriteString(w, r.Markdown())
		return err
	}
	return fmt.Errorf("study: unknown format %q (csv, json or md)", format)
}

// Manifest builds the study's tamper-evident Merkle manifest over every
// evaluated point, in plan order.
func (r *Result) Manifest() (*engine.Manifest, error) {
	return engine.BuildManifest(r.Name, r.Jobs, r.Results)
}
