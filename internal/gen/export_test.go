package gen

// PieceOf exposes the piece search of kernel polynomial p to the external
// tests, which need the registered libm tables.
func (e *Evaluator) PieceOf(p int, r float64) int { return e.polys[p].piece(r) }
