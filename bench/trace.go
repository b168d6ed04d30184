package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// span is one timed call into a layer. Spans of one session share its
// source address and port as Trace; deliveries of a bus or collector
// batch are roots without a trace, carrying their event count. Names
// starting with "wait." are intervals a Close event spent between two
// layers rather than calls; they are never parents.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Trace  netip.AddrPort `json:"trace"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Events int            `json:"events,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func isWait(name string) bool { return strings.HasPrefix(name, "wait.") }

// linkSpans numbers the spans from 1 and gives each span of a session the
// innermost span of the same session that encloses it as parent. The
// wrappers cannot see which call caused which, but within one session
// calls nest in time: the client's session encloses the farm handler,
// which encloses the events it records.
func linkSpans(in []span) []span {
	out := make([]span, len(in))
	copy(out, in)
	byTrace := map[netip.AddrPort][]int{}
	for i := range out {
		out[i].ID = i + 1
		out[i].Parent = 0
		if out[i].Trace.IsValid() && !isWait(out[i].Name) {
			byTrace[out[i].Trace] = append(byTrace[out[i].Trace], i)
		}
	}
	for _, idx := range byTrace {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := out[idx[a]], out[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 {
				top := out[stack[len(stack)-1]]
				if top.Start <= out[i].Start && out[i].End <= top.End {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				out[i].Parent = out[stack[len(stack)-1]].ID
			}
			stack = append(stack, i)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children cover; overlapping children count once. spans must be indexed
// by ID-1, as linkSpans returns them.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = s.Start
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTime is one row of a span summary.
type layerTime struct {
	Name   string
	Count  int
	Events int
	Busy   int64 // summed durations, ns
	Self   int64 // summed self times, ns
	Durs   []float64
}

// summarizeSpans groups spans by name.
func summarizeSpans(spans []span) []*layerTime {
	self := selfTimes(spans)
	rows := map[string]*layerTime{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Events += s.Events
		r.Busy += s.dur()
		r.Self += self[i]
		r.Durs = append(r.Durs, float64(s.dur()))
	}
	out := make([]*layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printSummary writes one line per span name: count, events, busy and
// self time, and the median and 99th percentile duration.
func printSummary(w io.Writer, spans []span) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tcount\tevents\tbusy_s\tself_s\tp50_us\tp99_us\t")
	for _, r := range summarizeSpans(spans) {
		busy, selfS := fmt.Sprintf("%.4f", float64(r.Busy)/1e9), fmt.Sprintf("%.4f", float64(r.Self)/1e9)
		if isWait(r.Name) {
			selfS = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.1f\t%.1f\t\n", r.Name, r.Count, r.Events, busy, selfS,
			quantile(r.Durs, 0.5)/1e3, quantile(r.Durs, 0.99)/1e3)
	}
	tw.Flush()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a file written by writeSpans.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span line %d: %w", line, err)
		}
		if s.ID != len(out)+1 {
			return nil, fmt.Errorf("span line %d: id %d out of order", line, s.ID)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// summarize prints the summary of a spans file.
func summarize(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: %d spans\n", path, len(spans))
	printSummary(w, spans)
	return nil
}
