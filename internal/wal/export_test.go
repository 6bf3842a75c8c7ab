package wal

// holdFlusher stops the journal's flusher until release is called, so
// the appends made in between land in one batch by construction.
func (j *Journal) holdFlusher() (release func()) {
	close(j.stop)
	<-j.exit // the old flusher flushed what was pending and returned
	j.stop, j.exit = make(chan struct{}), make(chan struct{})
	return func() { go j.flusher() }
}
