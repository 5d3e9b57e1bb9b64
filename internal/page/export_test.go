package page

// Depth returns the length of the table's base layer chain (0 for a
// fresh or just-compacted table).
func (t *Table) Depth() int { return depthOf(t.base) }

// SharedWith returns how many of t's resident pages are also reachable
// by at least one other table through a shared layer: the maximal
// sharing of §3.3 ("predicates and COW maximize sharing").
func (t *Table) SharedWith() int {
	if t.released {
		return 0
	}
	width := max(widthOf(t.base), widthOf(t.delta))
	shared := 0
	for n := int64(0); n < int64(width); n++ {
		if t.delta.slot(n) != nil {
			continue // delta pages are private
		}
		exclusive := true
		for l := t.base; l != nil; l = l.parent {
			if l.refs.Load() != 1 {
				exclusive = false
			}
			if l.slot(n) != nil {
				if !exclusive {
					shared++
				}
				break
			}
		}
	}
	return shared
}

// SamePage reports whether t and other map the same physical page at n
// (i.e., the page is still shared, not copied).
func (t *Table) SamePage(other *Table, n int64) bool {
	a := t.resolve(n)
	return a != nil && a == other.resolve(n)
}
