// Package sampling stubs the real internal/sampling surface: a served
// sample view reports the rows its serve read to build the view.
package sampling

type View struct{ read int }

func (v *View) Read() int { return v.read }
