// Package view implements rule-defined graph views over a relational
// database: a declarative rule language (and an equivalent Go builder
// API) describing which tuples become vertices, which attributes are
// projected as leaf vertices, and which foreign-key join paths and
// bounded FK closures become edges. Compiling a Def against a
// relational.Database materializes a graph.Graph plus a tuple↔vertex
// Mapping, so every view is a first-class linking target. The canonical
// RDB2RDF direct mapping is itself the built-in Direct view, which is
// how her.System builds its G_D: byte-identical to rdb2rdf.Map output
// (the differential gate in internal/testkit keeps this honest).
//
// The design follows GraphGen's "graphs as declarative views over
// relational data" (PAPERS.md): the paper's framework only requires
// *some* schema-to-graph mapping f_D, so one deployment can serve many
// graph shapes over the same database.
package view

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// MaxClosureDepth bounds the depth of closure rules: FK chains are
// functional (one value per tuple), so a deeper bound only lengthens
// the chain walk without adding expressiveness worth the cost.
const MaxClosureDepth = 64

// maxRules bounds the total number of rules a Def may carry, so a
// hostile or fuzzed definition cannot make compilation quadratic in
// attacker-controlled input.
const maxRules = 4096

// Predicate is one vertex-rule filter: attr op value. Supported ops
// are "=" (equality), "!=" (inequality) and "~" (substring).
type Predicate struct {
	Attr  string
	Op    string
	Value string
}

// VertexRule materializes the tuples of one relation as vertices.
type VertexRule struct {
	// Relation names the source relation. At most one vertex rule per
	// relation may exist in a Def, so the tuple→vertex mapping stays 1-1.
	Relation string
	// Where filters tuples; every predicate must hold (conjunction).
	// A predicate over a null attribute never holds.
	Where []Predicate
	// LabelAttr labels the vertex with the tuple's value of this
	// attribute instead of the relation name; a null value falls back
	// to the relation name. Empty means "label with the relation name",
	// the RDB2RDF convention.
	LabelAttr string
	// Attrs lists the attributes projected as leaf vertices (with an
	// edge labeled by the attribute name). AllAttrs projects every
	// attribute, as the direct mapping does.
	Attrs    []string
	AllAttrs bool
}

// EdgeRule adds tuple→tuple edges by following foreign keys.
type EdgeRule struct {
	// Label is the edge label in the materialized graph.
	Label string
	// Relation is the source relation whose tuples grow the edges.
	Relation string
	// Path is the FK attribute chain to follow: Path[0] is an FK
	// attribute of Relation, Path[1] an FK attribute of the relation it
	// references, and so on. A single-step path behaves exactly like the
	// direct mapping's FK edge (including degradation of a dangling FK
	// to an attribute leaf when the attribute is projected); longer
	// paths are join-path projections whose intermediate tuples need not
	// be materialized.
	Path []string
	// Closure, when > 0, turns a single-step rule into a bounded FK
	// closure: from each source tuple the (functional) FK chain is
	// followed transitively up to Closure hops, adding an edge to every
	// materialized tuple reached.
	Closure int
}

// Def is one named view definition: ordered vertex rules plus ordered
// edge rules. Rule order is semantic — it fixes vertex ids and edge
// emission order, which the byte-identity gate against rdb2rdf.Map
// depends on.
type Def struct {
	Name     string
	Vertices []VertexRule
	Edges    []EdgeRule
}

// NewDef starts a view definition for the builder API.
func NewDef(name string) *Def { return &Def{Name: name} }

// Vertex appends a vertex rule for relation rel and returns it for
// chaining (Where / Label / Project / ProjectAll).
func (d *Def) Vertex(rel string) *VertexRule {
	d.Vertices = append(d.Vertices, VertexRule{Relation: rel})
	return &d.Vertices[len(d.Vertices)-1]
}

// Filter appends a predicate to the rule's Where conjunction.
func (r *VertexRule) Filter(attr, op, value string) *VertexRule {
	r.Where = append(r.Where, Predicate{Attr: attr, Op: op, Value: value})
	return r
}

// Label sets the attribute whose value labels the vertex.
func (r *VertexRule) Label(attr string) *VertexRule {
	r.LabelAttr = attr
	return r
}

// Project appends attributes to the projection list.
func (r *VertexRule) Project(attrs ...string) *VertexRule {
	r.Attrs = append(r.Attrs, attrs...)
	return r
}

// ProjectAll projects every attribute of the relation.
func (r *VertexRule) ProjectAll() *VertexRule {
	r.AllAttrs = true
	return r
}

// Edge appends a join-path edge rule: follow the FK chain path from
// tuples of rel, labeling the resulting edges label.
func (d *Def) Edge(label, rel string, path ...string) *Def {
	d.Edges = append(d.Edges, EdgeRule{Label: label, Relation: rel, Path: path})
	return d
}

// ClosureEdge appends a bounded FK-closure rule: follow fk transitively
// up to depth hops from tuples of rel.
func (d *Def) ClosureEdge(label, rel, fk string, depth int) *Def {
	d.Edges = append(d.Edges, EdgeRule{Label: label, Relation: rel, Path: []string{fk}, Closure: depth})
	return d
}

// RuleCount reports the total number of rules (vertex + edge).
func (d *Def) RuleCount() int { return len(d.Vertices) + len(d.Edges) }

// String renders the definition back in the rule language; the result
// reparses to an equivalent definition (the fuzz target checks this
// round trip).
func (d *Def) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view %s\n", d.Name)
	for _, vr := range d.Vertices {
		fmt.Fprintf(&b, "vertex %s", quoteTok(vr.Relation))
		for i, p := range vr.Where {
			if i == 0 {
				b.WriteString(" where ")
			} else {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "%s %s %s", quoteTok(p.Attr), p.Op, strconv.Quote(p.Value))
		}
		if vr.LabelAttr != "" {
			fmt.Fprintf(&b, " label %s", quoteTok(vr.LabelAttr))
		}
		b.WriteByte('\n')
		if vr.AllAttrs {
			fmt.Fprintf(&b, "attrs %s *\n", quoteTok(vr.Relation))
		} else if len(vr.Attrs) > 0 {
			fmt.Fprintf(&b, "attrs %s", quoteTok(vr.Relation))
			for _, a := range vr.Attrs {
				fmt.Fprintf(&b, " %s", quoteTok(a))
			}
			b.WriteByte('\n')
		}
	}
	for _, er := range d.Edges {
		if er.Closure > 0 {
			fmt.Fprintf(&b, "closure %s from %s via %s depth %d\n",
				quoteTok(er.Label), quoteTok(er.Relation), quoteTok(er.Path[0]), er.Closure)
			continue
		}
		fmt.Fprintf(&b, "edge %s from %s via %s\n",
			quoteTok(er.Label), quoteTok(er.Relation), quoteTok(strings.Join(er.Path, ".")))
	}
	return b.String()
}

// quoteTok renders a token for String(): bare when it survives the
// tokenizer unchanged, double-quoted otherwise. A bare '\r' would not
// survive: the line scanner drops it before a newline.
func quoteTok(s string) string {
	bare := s != "" && s != "*"
	for i := 0; bare && i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n', '"', '#', '\\':
			bare = false
		}
	}
	if bare {
		return s
	}
	return strconv.Quote(s)
}

// check validates the definition's internal consistency — the checks
// that need no database: name and rule shapes, rule-count bounds, at
// most one vertex rule per relation. Parse and Compile both run it.
func (d *Def) check() error {
	if !validName(d.Name) {
		return fmt.Errorf("view: invalid view name %q", d.Name)
	}
	if d.RuleCount() == 0 {
		return fmt.Errorf("view %s: no rules", d.Name)
	}
	if d.RuleCount() > maxRules {
		return fmt.Errorf("view %s: too many rules (%d > %d)", d.Name, d.RuleCount(), maxRules)
	}
	seen := make(map[string]bool, len(d.Vertices))
	for _, vr := range d.Vertices {
		if vr.Relation == "" {
			return fmt.Errorf("view %s: vertex rule without relation", d.Name)
		}
		if seen[vr.Relation] {
			return fmt.Errorf("view %s: duplicate vertex rule for relation %s", d.Name, vr.Relation)
		}
		seen[vr.Relation] = true
		for _, p := range vr.Where {
			switch p.Op {
			case "=", "!=", "~":
			default:
				return fmt.Errorf("view %s: vertex %s: unknown operator %q", d.Name, vr.Relation, p.Op)
			}
			if p.Attr == "" {
				return fmt.Errorf("view %s: vertex %s: predicate without attribute", d.Name, vr.Relation)
			}
		}
		if len(vr.Attrs) > 0 && vr.AllAttrs {
			return fmt.Errorf("view %s: vertex %s: both attrs list and attrs *", d.Name, vr.Relation)
		}
	}
	for _, er := range d.Edges {
		if er.Label == "" || er.Relation == "" {
			return fmt.Errorf("view %s: edge rule needs a label and a source relation", d.Name)
		}
		if len(er.Path) == 0 {
			return fmt.Errorf("view %s: edge %s: empty foreign-key path", d.Name, er.Label)
		}
		for _, a := range er.Path {
			if a == "" {
				return fmt.Errorf("view %s: edge %s: empty path step", d.Name, er.Label)
			}
		}
		if er.Closure < 0 || er.Closure > MaxClosureDepth {
			return fmt.Errorf("view %s: closure %s: depth %d out of range [1,%d]",
				d.Name, er.Label, er.Closure, MaxClosureDepth)
		}
		if er.Closure > 0 && len(er.Path) != 1 {
			return fmt.Errorf("view %s: closure %s: closure follows exactly one foreign key", d.Name, er.Label)
		}
	}
	return nil
}

// validName reports whether s is usable as a view name: non-empty ASCII
// letters, digits, '_', '-', '.' — safe in URLs, flags and metric labels.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// sortedNames returns map keys in sorted order (small helper shared by
// the canonical dump and the registry).
func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
