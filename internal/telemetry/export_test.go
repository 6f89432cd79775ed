package telemetry

// CodecHeldBytes is what the snapshot encoder keeps between frames: the
// exporter's end of WireInfo.HeldBytes, for tests.
func (e *Exporter) CodecHeldBytes() int {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.enc.HeldBytes()
}
