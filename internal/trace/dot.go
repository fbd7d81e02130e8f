package trace

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the task graph in Graphviz DOT format for visual
// inspection of a schedule's dependency structure. Memory tasks are
// drawn as boxes, compute tasks as ellipses; queue order is implicit
// in the task IDs. Intended for small schedules or truncated views
// (maxTasks ≤ 0 renders everything).
func (p *Program) WriteDOT(w io.Writer, maxTasks int) error {
	n := len(p.Tasks)
	if maxTasks > 0 && maxTasks < n {
		n = maxTasks
	}
	var sb strings.Builder
	sb.WriteString("digraph schedule {\n  rankdir=LR;\n")
	for i := 0; i < n; i++ {
		t := &p.Tasks[i]
		shape := "ellipse"
		label := fmt.Sprintf("%s\\n%d ops", t.Name, t.Ops)
		if t.Kind != Compute {
			shape = "box"
			label = fmt.Sprintf("%s\\n%d B", t.Name, t.Bytes)
		}
		fmt.Fprintf(&sb, "  t%d [shape=%s,label=\"%s\"];\n", t.ID, shape, escapeDOT(label))
	}
	for i := 0; i < n; i++ {
		for _, d := range p.Tasks[i].Deps {
			if d < n {
				fmt.Fprintf(&sb, "  t%d -> t%d;\n", d, p.Tasks[i].ID)
			}
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func escapeDOT(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
