package exec

import (
	"fmt"
	"strings"
)

// Explainer is implemented by operators that can describe themselves; all
// operators in this package do. Sources outside the package appear as
// their Go type name.
type Explainer interface {
	explain() (desc string, children []Source)
}

// Explain renders the plan's operator tree, one operator per line,
// children indented — the debugging surface every engine's EXPLAIN offers.
func (p *Plan) Explain() string {
	var b strings.Builder
	explainInto(&b, p.src, 0)
	return b.String()
}

func explainInto(b *strings.Builder, s Source, depth int) {
	desc, children := describe(s)
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(desc)
	b.WriteByte('\n')
	for _, c := range children {
		explainInto(b, c, depth+1)
	}
}

func describe(s Source) (string, []Source) {
	if e, ok := s.(Explainer); ok {
		return e.explain()
	}
	return fmt.Sprintf("%T", s), nil
}

func (s *memSource) explain() (string, []Source) {
	return fmt.Sprintf("MemScan(rows=%d, cols=%d)", len(s.rows), len(s.schema)), nil
}

func (s *colScan) explain() (string, []Source) {
	ov := ""
	if s.overlay != nil {
		ov = fmt.Sprintf(", delta=%d rows/%d masked", len(s.overlay.Rows), len(s.overlay.Masked))
	}
	push := ""
	if len(s.pushed) > 0 {
		ps := make([]string, len(s.pushed))
		for i := range s.pushed {
			ps[i] = s.pushed[i].String()
		}
		push = fmt.Sprintf(", pushdown=[%s]", strings.Join(ps, " AND "))
	}
	return fmt.Sprintf("ColumnScan(%s, segments=%d, cols=%d%s%s)",
		s.v.Schema.Name, len(s.v.Segs), len(s.schema), ov, push), nil
}

func (s *errSource) explain() (string, []Source) {
	return fmt.Sprintf("Error(%v)", s.err), nil
}

func (p *hashJoinProbe) explain() (string, []Source) {
	return "HashJoinProbe", []Source{p.left}
}

func (s *unionSource) explain() (string, []Source) {
	return fmt.Sprintf("Union(%d inputs)", len(s.srcs)), s.srcs
}

func (o *filterOp) explain() (string, []Source) {
	return fmt.Sprintf("Filter(%s)", o.expr), []Source{o.in}
}

func (o *projectOp) explain() (string, []Source) {
	names := make([]string, len(o.schema))
	for i, c := range o.schema {
		names[i] = c.Name
	}
	return fmt.Sprintf("Project(%s)", strings.Join(names, ", ")), []Source{o.in}
}

func (o *hashJoinOp) explain() (string, []Source) {
	kind := map[JoinType]string{InnerJoin: "Inner", LeftSemiJoin: "Semi", LeftAntiJoin: "Anti"}[o.typ]
	return fmt.Sprintf("HashJoin(%s, keys=%d)", kind, len(o.leftKeys)),
		[]Source{o.left, o.buildSrc}
}

func (o *hashAggOp) explain() (string, []Source) {
	aggs := make([]string, len(o.aggs))
	for i, a := range o.aggs {
		aggs[i] = a.Name
	}
	return fmt.Sprintf("HashAggregate(groups=%d, aggs=[%s])", len(o.keyCols), strings.Join(aggs, ", ")),
		[]Source{o.in}
}

func (o *sortOp) explain() (string, []Source) {
	keys := make([]string, len(o.keys))
	for i, k := range o.keys {
		keys[i] = k.Col
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	return fmt.Sprintf("Sort(%s)", strings.Join(keys, ", ")), []Source{o.in}
}

func (o *limitOp) explain() (string, []Source) {
	return fmt.Sprintf("Limit(%d)", o.left), []Source{o.in}
}

func (o *topKOp) explain() (string, []Source) {
	keys := make([]string, len(o.keys))
	for i, k := range o.keys {
		keys[i] = k.Col
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	return fmt.Sprintf("TopK(%d by %s)", o.k, strings.Join(keys, ", ")), []Source{o.in}
}
