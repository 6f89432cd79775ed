package telemetry

// CodecHeldBytes is what the snapshot encoder keeps between frames: the
// exporter's end of WireInfo.HeldBytes, for tests.
func (e *Exporter) CodecHeldBytes() int {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.enc.HeldBytes()
}

// BankSlots counts the merged-row slots query qid holds across its
// retained epochs, recycled ones not yet merged into included: the rows
// of memory it costs, for tests.
func (s *Service) BankSlots(qid int) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queries[qid]; q != nil {
		for _, es := range q.epochs {
			n += len(es.banks)
		}
	}
	return n
}

// KeepAlertWindows is how many windows' dedup sets the service holds.
const KeepAlertWindows = keepAlertWindows
