package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The waterfall is the human-readable rendering of a trace's span tree:
// one line per span, indented by tree depth, with the span's offset,
// duration, kind, partition and outcome, and a proportional bar showing
// where in the request's lifetime the span ran. It is what
// /debug/traces/<id> serves, and it exists because a JSON span tree
// answers "which partition made this request slow" only after mental
// arithmetic — the bar answers it at a glance.

// waterfallBarWidth is the bar gutter's width in cells.
const waterfallBarWidth = 32

// WriteWaterfall renders t's span tree as text.
func WriteWaterfall(w io.Writer, t *Trace) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "trace %d  %s  outcome=%s  total=%s", t.ID, t.Label, orOK(t.Outcome), round(t.Total))
	if t.Gen != 0 {
		fmt.Fprintf(w, "  gen=%d", t.Gen)
	}
	if t.SpansDropped > 0 {
		fmt.Fprintf(w, "  spans_dropped=%d", t.SpansDropped)
	}
	fmt.Fprintln(w)
	for _, a := range t.Annots {
		fmt.Fprintf(w, "  %s=%s\n", a.Key, a.Value)
	}
	if len(t.Children) == 0 {
		return
	}
	fmt.Fprintln(w)

	// Children of each parent, rendered in start order so the waterfall
	// reads top-to-bottom as time flows.
	kids := make(map[int32][]int, len(t.Children))
	for i := range t.Children {
		p := t.Children[i].Parent
		kids[p] = append(kids[p], i)
	}
	for _, g := range kids {
		sort.Slice(g, func(a, b int) bool {
			if t.Children[g[a]].Start != t.Children[g[b]].Start {
				return t.Children[g[a]].Start < t.Children[g[b]].Start
			}
			return g[a] < g[b]
		})
	}

	var walk func(parent int32, depth int)
	walk = func(parent int32, depth int) {
		for _, i := range kids[parent] {
			writeSpanLine(w, t, &t.Children[i], depth)
			walk(t.Children[i].ID, depth+1)
		}
	}
	walk(0, 0)
}

func writeSpanLine(w io.Writer, t *Trace, cs *ChildSpan, depth int) {
	label := cs.Name
	if cs.Partition >= 0 {
		label += fmt.Sprintf(" p%d", cs.Partition)
	}
	if cs.Kind != "" {
		label += " [" + cs.Kind + "]"
	}
	detail := make([]string, 0, 4)
	if cs.Outcome != "" {
		detail = append(detail, "outcome="+cs.Outcome)
	}
	if cs.Gen != 0 {
		detail = append(detail, fmt.Sprintf("gen=%d", cs.Gen))
	}
	if cs.Entries != 0 {
		detail = append(detail, fmt.Sprintf("entries=%d", cs.Entries))
	}
	if cs.Link != 0 {
		detail = append(detail, fmt.Sprintf("peer=#%d", cs.Link))
	}
	for _, a := range cs.Annots {
		detail = append(detail, a.Key+"="+a.Value)
	}
	mark := ""
	if cs.Outcome == "won" {
		mark = "  ◀ winner"
	}
	fmt.Fprintf(w, "#%-3d %s|%s| %8s +%-8s %s%s%s\n",
		cs.ID, strings.Repeat("  ", depth), bar(t.Total, cs.Start, cs.Dur),
		round(cs.Start), round(cs.Dur), label, joined(detail), mark)
}

// bar draws the span's extent within the request's total duration.
func bar(total time.Duration, start, dur time.Duration) string {
	cells := [waterfallBarWidth]byte{}
	for i := range cells {
		cells[i] = ' '
	}
	if total > 0 {
		from := int(int64(start) * waterfallBarWidth / int64(total))
		to := int(int64(start+dur) * waterfallBarWidth / int64(total))
		if from < 0 {
			from = 0
		}
		if from > waterfallBarWidth-1 {
			from = waterfallBarWidth - 1
		}
		if to <= from {
			to = from + 1
		}
		if to > waterfallBarWidth {
			to = waterfallBarWidth
		}
		for i := from; i < to; i++ {
			cells[i] = '='
		}
	}
	return string(cells[:])
}

func joined(detail []string) string {
	if len(detail) == 0 {
		return ""
	}
	return "  " + strings.Join(detail, " ")
}

func orOK(outcome string) string {
	if outcome == "" {
		return "ok"
	}
	return outcome
}

// round trims a duration to a readable precision for the waterfall.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond)
	default:
		return d
	}
}
