package interval

// Clip returns the parts of every interval of s inside the window w,
// dropping empty results but keeping touch points (closed semantics), so a
// clipped set preserves capacity interactions at the window border.
func (s Set) Clip(w Interval) Set {
	var out Set
	for _, iv := range s {
		if x, ok := iv.Intersect(w); ok {
			out = append(out, x)
		}
	}
	return out
}
