package serve

import (
	"context"
	"encoding/json"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// Recover reloads the store's runs into the service: terminal runs
// become read-only history (results and trace streams stay servable),
// and interrupted runs — queued or running when their process died —
// are claimed and re-executed from their cell checkpoints. Determinism
// makes the resumed result byte-identical to an uninterrupted run: a
// checkpointed cell's result merges in verbatim, and an incomplete cell
// re-derives every random stream from its own recorded seed.
//
// Call Recover after NewWith and before serving traffic. Runs whose
// lease another replica holds are registered for read access but not
// executed. Recover returns on the first store read error; individual
// corrupt records are skipped with a log line instead.
func (s *Server) Recover(ctx context.Context) error {
	recs, err := s.store.ListRuns()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.recoverRun(rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) recoverRun(rec store.Record) error {
	var spec engine.SweepSpec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		if s.logger != nil {
			s.logger.Error("skipping run with corrupt spec", "run", rec.ID, "error", err)
		}
		return nil
	}
	// A recorded spec is already normalized, and normalized specs
	// re-expand to identical cells — the determinism contract resume
	// rests on.
	ex, err := spec.Expand()
	if err != nil {
		if s.logger != nil {
			s.logger.Error("skipping run whose spec no longer expands", "run", rec.ID, "error", err)
		}
		return nil
	}
	run := &Run{
		ID:       rec.ID,
		Status:   rec.Status,
		Error:    rec.Error,
		Created:  rec.Created,
		Started:  rec.Started,
		Finished: rec.Finished,
		seq:      rec.Seq,
		tenant:   rec.Tenant,
		idemKey:  rec.IdemKey,
		expanded: ex,
		single:   rec.Single,
	}
	if rec.Single {
		sc := ex.Cells()[0]
		run.Scenario = &sc
	} else {
		sp := ex.Spec()
		run.Spec = &sp
	}
	kind := ex.Spec().Kind
	streaming := kind == engine.KindCluster || kind == engine.KindFarm
	traced := streaming && ex.Cells()[0].Trace

	if terminal(rec.Status) {
		decodeResult(run, rec)
		// Released tails route interval readers to the recorded result
		// or the store, and trace readers to the store.
		if streaming {
			run.tail = releasedTail(len(ex.Cells()))
		}
		if traced {
			run.traceTail = releasedTail(len(ex.Cells()))
		}
		s.register(run, false)
		return nil
	}

	// Interrupted. Claim it — a replica restarted under the same owner
	// reclaims its own runs immediately; a rival's live lease means that
	// replica is (still) executing the run, so register it read-only.
	claimed, err := s.store.Claim(rec.ID, s.owner, s.leaseTTL)
	if err != nil {
		return err
	}
	if !claimed {
		if streaming {
			run.tail = newTail(len(ex.Cells()))
		}
		if traced {
			run.traceTail = newTail(len(ex.Cells()))
		}
		s.register(run, false)
		if s.logger != nil {
			s.logger.Info("run leased elsewhere; not resuming", "run", rec.ID)
		}
		return nil
	}

	cells, err := s.store.Cells(rec.ID)
	if err != nil {
		return err
	}
	resume := make(map[int]engine.Result, len(cells))
	for _, c := range cells {
		var res engine.Result
		if err := json.Unmarshal(c.Result, &res); err != nil {
			continue // torn checkpoint line: just re-run the cell
		}
		resume[c.Cell] = res
	}
	isCheckpointed := func(cell int) bool {
		_, ok := resume[cell]
		return ok
	}
	// Incomplete cells re-run from scratch; their partial streams must
	// go first or the re-run would append duplicates after them.
	if err := s.store.TruncateIntervals(rec.ID, isCheckpointed); err != nil {
		return err
	}
	if err := s.store.TruncateTrace(rec.ID, isCheckpointed); err != nil {
		return err
	}
	if streaming {
		run.tail = newTail(len(ex.Cells()))
		//ealb:allow-nondet per-cell preload; cells are independent buffers
		for cell := range resume {
			if lines, err := s.store.Intervals(rec.ID, cell); err == nil {
				run.tail.preload(cell, lines)
			}
		}
	}
	if traced {
		run.traceTail = newTail(len(ex.Cells()))
		//ealb:allow-nondet per-cell preload; cells are independent buffers
		for cell := range resume {
			if lines, err := s.store.Trace(rec.ID, cell); err == nil {
				run.traceTail.preload(cell, lines)
			}
		}
	}
	run.resume = resume
	run.Status = StatusQueued

	rctx, cancel := context.WithCancel(context.Background())
	run.cancel = cancel
	s.register(run, true)
	if s.logger != nil {
		s.logger.Info("resuming interrupted run", "run", rec.ID,
			"cells", len(ex.Cells()), "checkpointed", len(resume))
	}
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.execute(rctx, run)
	}()
	return nil
}

// register adds a recovered run to the in-memory view (and the
// idempotency index); executing additionally joins the drain group —
// the started goroutine owes one s.wg.Done.
func (s *Server) register(run *Run, executing bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if executing {
		s.wg.Add(1)
	}
	s.runs[run.ID] = run
	if run.idemKey != "" {
		s.idem[idemIndex(run.tenant, run.idemKey)] = run.ID
	}
}
