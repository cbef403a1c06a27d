package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"distiq/internal/engine"
)

// metricColumns are the measured columns appended after the axis and
// benchmark columns of every emitted row.
var metricColumns = []string{"ipc", "iq_energy_pj", "cycles"}

// ResultSet pairs a grid with its results, in point order.
type ResultSet struct {
	Grid    *Grid
	Results []engine.Result
}

// Header returns the column names of the tabular emitters: the grid's
// varying axes, the benchmark, then the metrics.
func (rs *ResultSet) Header() []string {
	h := append([]string(nil), rs.Grid.Axes...)
	h = append(h, "benchmark")
	return append(h, metricColumns...)
}

// row renders one result row as strings aligned with Header.
func (rs *ResultSet) row(i int) []string {
	p, r := rs.Grid.Points[i], rs.Results[i]
	out := append([]string(nil), p.Values...)
	out = append(out, p.Bench,
		fmt.Sprintf("%.4f", r.IPC()),
		fmt.Sprintf("%.1f", r.IQEnergy),
		fmt.Sprintf("%d", r.Cycles))
	return out
}

// CSV renders the result set as comma-separated values with a header
// row. Rows follow grid order, so reruns at any parallelism (or from a
// warm cache) emit byte-identical output.
func (rs *ResultSet) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(rs.Header(), ","))
	b.WriteByte('\n')
	for i := range rs.Results {
		b.WriteString(strings.Join(rs.row(i), ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the result set as a GitHub-flavored markdown table.
func (rs *ResultSet) Markdown() string {
	var b strings.Builder
	if name := rs.Grid.Spec.Name; name != "" {
		fmt.Fprintf(&b, "### %s\n\n", name)
	}
	header := rs.Header()
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(header)) + "\n")
	for i := range rs.Results {
		b.WriteString("| " + strings.Join(rs.row(i), " | ") + " |\n")
	}
	return b.String()
}

// JSON renders the result set as an indented JSON document: the spec
// name and one object per row keyed by column name (metrics as numbers,
// axis values as strings). Run-varying engine counters are deliberately
// excluded — a warm-cache rerun must emit byte-identical documents;
// read the stream's Counts (or the CLI's stderr summary) for resolution
// counts.
func (rs *ResultSet) JSON() ([]byte, error) {
	type doc struct {
		Name string           `json:"name,omitempty"`
		Rows []map[string]any `json:"rows"`
	}
	d := doc{Name: rs.Grid.Spec.Name}
	for i := range rs.Results {
		p, r := rs.Grid.Points[i], rs.Results[i]
		row := make(map[string]any, len(rs.Grid.Axes)+4)
		for k, axis := range rs.Grid.Axes {
			row[axis] = p.Values[k]
		}
		row["benchmark"] = p.Bench
		row["ipc"] = r.IPC()
		row["iq_energy_pj"] = r.IQEnergy
		row["cycles"] = r.Cycles
		d.Rows = append(d.Rows, row)
	}
	return json.MarshalIndent(d, "", "  ")
}

// Formats lists the emitter names Emit accepts ("markdown" is an alias
// of "md").
var Formats = []string{"csv", "json", "md"}

// IsFormat reports whether Emit accepts the format name.
func IsFormat(name string) bool {
	return name == "markdown" || slices.Contains(Formats, name)
}

// Emit writes the result set to w in the named format. Every front end
// (cmd/iqsweep, local or -server) funnels through this one function, so
// a given grid emits byte-identical documents whichever substrate ran
// it. The JSON document gains a trailing newline, matching
// the historical CLI output.
func (rs *ResultSet) Emit(w io.Writer, format string) error {
	switch format {
	case "csv":
		_, err := io.WriteString(w, rs.CSV())
		return err
	case "json":
		data, err := rs.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	case "md", "markdown":
		_, err := io.WriteString(w, rs.Markdown())
		return err
	}
	return fmt.Errorf("scenario: unknown format %q (csv, json or md)", format)
}
