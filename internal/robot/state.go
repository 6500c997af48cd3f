package robot

import "roborepair/internal/checkpoint"

// AppendState serializes the robot's complete dynamic state in canonical
// order (checkpoint section payload). Scheduled-event handles (arrival,
// update, takeover timers) are omitted: their (at, seq) stamps live in the
// kernel section, and a restored run rebuilds them by deterministic
// replay.
func (r *Robot) AppendState(b []byte) []byte {
	b = checkpoint.AppendI64(b, int64(r.id))
	b = checkpoint.AppendF64(b, r.anchor.X)
	b = checkpoint.AppendF64(b, r.anchor.Y)
	b = checkpoint.AppendF64(b, float64(r.anchorTime))
	b = checkpoint.AppendF64(b, r.dest.X)
	b = checkpoint.AppendF64(b, r.dest.Y)
	b = checkpoint.AppendBool(b, r.moving)
	b = checkpoint.AppendF64(b, r.indexedPos.X)
	b = checkpoint.AppendF64(b, r.indexedPos.Y)
	b = checkpoint.AppendF64(b, r.traveled)
	b = checkpoint.AppendU64(b, r.seq)
	b = checkpoint.AppendI64(b, int64(r.cargo))
	b = checkpoint.AppendBool(b, r.restocking)
	b = checkpoint.AppendI64(b, int64(r.restocks))
	b = checkpoint.AppendBool(b, r.failed)
	b = checkpoint.AppendU64(b, r.replayRejected)

	appendTask := func(b []byte, t Task) []byte {
		b = checkpoint.AppendI64(b, int64(t.Failed))
		b = checkpoint.AppendF64(b, t.Loc.X)
		b = checkpoint.AppendF64(b, t.Loc.Y)
		b = checkpoint.AppendF64(b, float64(t.EnqueuedAt))
		return b
	}
	b = checkpoint.AppendBool(b, r.current != nil)
	if r.current != nil {
		b = appendTask(b, *r.current)
		b = checkpoint.AppendF64(b, r.taskFrom.X)
		b = checkpoint.AppendF64(b, r.taskFrom.Y)
	}
	b = checkpoint.AppendU32(b, uint32(len(r.queue)))
	for _, t := range r.queue {
		b = appendTask(b, t)
	}
	b = checkpoint.AppendU32(b, uint32(len(r.stranded)))
	for _, t := range r.stranded {
		b = appendTask(b, t)
	}

	// Reliability-extension state.
	b = checkpoint.AppendI64(b, int64(r.mgrID))
	b = checkpoint.AppendF64(b, r.mgrLoc.X)
	b = checkpoint.AppendF64(b, r.mgrLoc.Y)
	b = checkpoint.AppendF64(b, float64(r.lastMgrAck))
	b = checkpoint.AppendBool(b, r.takeoverArmed)
	b = checkpoint.AppendBool(b, r.managing)

	b = r.book.AppendState(b)

	// Standby-relocation state (appended after the original layout:
	// sections are byte-compared, never field-decoded, so extending the
	// tail is format-safe).
	b = checkpoint.AppendBool(b, r.relocating)
	b = checkpoint.AppendF64(b, r.relocFrom.X)
	b = checkpoint.AppendF64(b, r.relocFrom.Y)
	b = checkpoint.AppendU64(b, r.relocSeq)
	b = checkpoint.AppendI64(b, int64(r.relocations))

	// Battery-extension state (tail-extended for the same reason). The
	// pack ledger and the lazy-accrual bookkeeping both ride the snapshot
	// so a restored continuation debits identically.
	b = checkpoint.AppendBool(b, r.bat != nil)
	if r.bat != nil {
		b = checkpoint.AppendF64(b, r.bat.RemainingJ)
		b = checkpoint.AppendF64(b, r.bat.SpentJ)
		b = checkpoint.AppendF64(b, r.bat.RechargedJ)
		b = checkpoint.AppendF64(b, float64(r.batAt))
		b = checkpoint.AppendF64(b, r.extraDrainW)
		b = checkpoint.AppendBool(b, r.charging)
		b = checkpoint.AppendBool(b, r.rechargeLeg)
		b = checkpoint.AppendF64(b, r.rechargeFrom.X)
		b = checkpoint.AppendF64(b, r.rechargeFrom.Y)
		b = checkpoint.AppendI64(b, int64(r.recharges))
		b = checkpoint.AppendI64(b, int64(r.handoffs))
		b = checkpoint.AppendBool(b, r.died)
		b = checkpoint.AppendF64(b, float64(r.diedAt))
	}
	return b
}
