package statestore

// EntryVersion reports the version the server holds for device, for the
// external tests that need a trained profile set (whose fixture package
// imports this one).
func EntryVersion(s *Server, device string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[device]
	if !ok {
		return 0, false
	}
	return e.ver, true
}
