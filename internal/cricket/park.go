package cricket

// Scale-to-zero, server side. Parking is the fleet's idle deadline
// arriving: the server takes a final checkpoint of every device (the
// same CRAC-style snapshot CKP_CHECKPOINT takes, persisted when a
// checkpoint directory is configured) and then refuses work until
// woken. A parked server models a released instance — in a real
// deployment the process would exit after Park and a fresh one would
// start on wake, restoring from the persisted checkpoints via
// SetCheckpointDir; in-process it simply sheds every governed call so
// clients back off exactly as they would against a saturated server.
//
// Epoch discovery stays answerable while parked, like it does under
// admission control: a prober or recovering client must always be able
// to ask who is there, and learning the epoch does not touch device
// state.

// Park takes a final checkpoint of every device and stops admitting
// calls. Idempotent; the fleet's Pool calls it through the member's
// Park hook once the idle deadline passes.
func (s *Server) Park() error {
	// Exclusive against in-flight batches, like CKP_CHECKPOINT: the
	// final checkpoint must capture whole batches only.
	s.execMu.Lock()
	defer s.execMu.Unlock()
	n, _, _ := s.rt.GetDeviceCount()
	var firstErr error
	for dev := 0; dev < n; dev++ {
		d, err := s.rt.Device(dev)
		if err != nil {
			continue
		}
		snap, _, err := d.Snapshot()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.mu.Lock()
		s.snapshots[dev] = snap
		s.stats.Checkpoints++
		dir := s.ckpDir
		s.mu.Unlock()
		if dir != "" {
			if err := writeCheckpointFile(dir, dev, snap); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		// An incomplete final checkpoint must not park the server:
		// waking would silently resume from stale or missing state.
		if s.ErrorLog != nil {
			s.ErrorLog.Printf("cricket: park aborted: %v", firstErr)
		}
		return firstErr
	}
	s.mu.Lock()
	if !s.parked {
		s.parked = true
		s.stats.Parks++
	}
	s.mu.Unlock()
	return nil
}
