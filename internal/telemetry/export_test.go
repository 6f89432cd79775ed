package telemetry

// CodecHeldBytes is what the current stream's snapshot encoder keeps
// between frames (0 on a JSON stream): the exporter's end of
// WireInfo.HeldBytes, for tests.
func (e *Exporter) CodecHeldBytes() int {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.enc == nil {
		return 0
	}
	return e.enc.HeldBytes()
}
