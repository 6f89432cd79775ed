package controller

import (
	"fmt"
	"time"
)

// ResizeWidth redeploys query qid at a new sketch width while KEEPING
// its qid — the accuracy refiner's primitive, so a width change never
// looks like a remove+install to consumers tracking the query. It sets
// the current desired state with the width replaced: every member's
// share changes, so reconcile removes the old program before installing
// the new width on each (an "already installed" old geometry can never
// pass for converged, and widths never mix), a failure rolls every
// touched member back to the old width, and success tells the attached
// analyzer (NoteResize) so the first post-resize epoch carries
// transition provenance. A member offline fails the resize up front.
func (r *Remote) ResizeWidth(qid int, width uint32) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.want[qid]
	switch {
	case !ok:
		return 0, fmt.Errorf("controller: no deployment %d", qid)
	case width == 0:
		return 0, fmt.Errorf("controller: resize of %d to width 0", qid)
	case width == cur.Width:
		return 0, nil
	}
	next := *cur
	next.Width, next.Programs, next.progs = width, nil, nil
	p, err := r.set(qid, &next)
	return p.delay, err
}
