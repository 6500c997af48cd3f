package radio

import (
	"math"

	"roborepair/internal/geom"
)

// cellKey addresses one cell of the uniform grid in cell coordinates.
type cellKey struct{ cx, cy int }

// Dense-grid sizing. A fresh grid starts minGridSide cells square around
// its first key; every growth at least doubles the extent along each axis
// it grows on, so a field of n cells is reached in O(log n) rebuilds
// rather than one per newly touched cell. maxGridCells caps the memory the
// index may claim (2M cells ≈ 48 MB of slice headers, ~10× what a
// million-sensor megafield needs). maxGridCoord bounds cell coordinates
// (keyOf saturates past it), keeping the bounds arithmetic clear of
// overflow for absurd or non-finite positions.
const (
	minGridSide  = 8
	maxGridCells = 1 << 21
	maxGridCoord = 1 << 30
)

// grid is the medium's spatial index: a dense, row-major array of cells,
// cell (cx, cy) at cells[(cy-y0)*w + (cx-x0)]. A station whose cell lies
// beyond what the grid may grow to cover lives in the far list instead,
// which every query also scans; in any real deployment it stays empty.
// The order of IDs inside a cell is arbitrary — queries sort their result.
type grid struct {
	size   float64
	x0, y0 int
	w, h   int
	cells  [][]NodeID
	far    []farEntry
}

// farEntry is a station filed outside the dense array, with its key so a
// later growth can move it into its cell.
type farEntry struct {
	id NodeID
	k  cellKey
}

func (g *grid) keyOf(p geom.Point) cellKey {
	return cellKey{cx: cellCoord(p.X / g.size), cy: cellCoord(p.Y / g.size)}
}

// cellCoord floors a coordinate in cell units to an int, saturating just
// past ±maxGridCoord: Go's conversion of NaN or out-of-range floats is
// platform-defined, and saturation keeps a query box from collapsing. NaN
// maps to the low sentinel.
func cellCoord(f float64) int {
	switch {
	case f >= maxGridCoord+1:
		return maxGridCoord + 1
	case f >= -maxGridCoord:
		return int(math.Floor(f))
	}
	return -maxGridCoord - 1
}

// covers reports whether k is a cell of the dense array.
func (g *grid) covers(k cellKey) bool {
	return k.cx >= g.x0 && k.cx < g.x0+g.w && k.cy >= g.y0 && k.cy < g.y0+g.h
}

func (g *grid) index(k cellKey) int { return (k.cy-g.y0)*g.w + (k.cx - g.x0) }

// insert adds id to cell k, growing the dense array to cover k when it may.
func (g *grid) insert(id NodeID, k cellKey) {
	if !g.covers(k) {
		g.grow(k)
	}
	if g.covers(k) {
		i := g.index(k)
		g.cells[i] = append(g.cells[i], id)
		return
	}
	g.far = append(g.far, farEntry{id: id, k: k})
}

// remove deletes id from cell k (the key it was inserted under).
func (g *grid) remove(id NodeID, k cellKey) {
	if g.covers(k) {
		i := g.index(k)
		g.cells[i] = removeID(g.cells[i], id)
		return
	}
	for i, e := range g.far {
		if e.id == id {
			g.far[i] = g.far[len(g.far)-1]
			g.far = g.far[:len(g.far)-1]
			return
		}
	}
}

// removeID deletes id from ids by swapping in the last element.
func removeID(ids []NodeID, id NodeID) []NodeID {
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			return ids[:len(ids)-1]
		}
	}
	return ids
}

// grow enlarges the dense array so it covers k: to the union of the old
// bounds and k, and at least double the old extent on each axis that
// grows. Over the cell cap it settles for the exact union, and when even
// that is too large it leaves the bounds alone (k then goes to the far
// list). Far-listed stations the new bounds cover move into their cells.
func (g *grid) grow(k cellKey) {
	if k.cx < -maxGridCoord || k.cx > maxGridCoord || k.cy < -maxGridCoord || k.cy > maxGridCoord {
		return
	}
	if g.w == 0 {
		g.reshape(k.cx-minGridSide/2, k.cy-minGridSide/2, minGridSide, minGridSide)
		return
	}
	x0, w := growAxis(g.x0, g.w, k.cx, true)
	y0, h := growAxis(g.y0, g.h, k.cy, true)
	if w*h > maxGridCells {
		x0, w = growAxis(g.x0, g.w, k.cx, false)
		y0, h = growAxis(g.y0, g.h, k.cy, false)
		if w*h > maxGridCells {
			return
		}
	}
	g.reshape(x0, y0, w, h)
}

// growAxis returns the bounds [lo, lo+n) of one axis extended to include
// c; with double set, an axis that grows at least doubles, extending
// toward c.
func growAxis(lo, n, c int, double bool) (int, int) {
	hi := lo + n - 1
	switch {
	case c < lo:
		span := hi - c + 1
		if double {
			span = max(span, 2*n)
		}
		return hi - span + 1, span
	case c > hi:
		span := c - lo + 1
		if double {
			span = max(span, 2*n)
		}
		return lo, span
	}
	return lo, n
}

// reshape moves every cell into a fresh array with the given bounds (which
// contain the old ones) and re-homes the far-listed stations they cover.
// Cell slices move by header, so their backing arrays are reused.
func (g *grid) reshape(x0, y0, w, h int) {
	cells := make([][]NodeID, w*h)
	for row := 0; row < g.h; row++ {
		dst := (g.y0+row-y0)*w + (g.x0 - x0)
		copy(cells[dst:dst+g.w], g.cells[row*g.w:(row+1)*g.w])
	}
	g.x0, g.y0, g.w, g.h, g.cells = x0, y0, w, h, cells
	kept := g.far[:0]
	for _, e := range g.far {
		if g.covers(e.k) {
			i := g.index(e.k)
			g.cells[i] = append(g.cells[i], e.id)
		} else {
			kept = append(kept, e)
		}
	}
	g.far = kept
}
