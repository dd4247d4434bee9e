// The staging area and the sealer: how the store keeps system calls out
// of the foreground.
//
// An append copies its record into stage, the unwritten tail of the
// active segment. When stage is full, or the segment is, the foreground
// hands the buffer to the sealer (it becomes the chunk in flight) and
// carries on in the spare one; the sealer writes the chunk, creates the
// file of the segment that follows a sealed one, closes and unlinks
// reclaimed segments and syncs the sealed one, releasing the mutex around
// every system call. There are exactly two buffers, so at most one chunk
// is in flight, and a foreground that needs it written waits for the
// sealer. While the store is healthy nobody else touches what the sealer
// has been handed.
//
// The I/O owed to the disk is state, not a queue: the chunk in flight, the
// segment awaiting its sync, an active segment without a file, the
// retired list. ioStep runs the next piece of it, for the sealer with the
// mutex released and for the foreground inline: that is how a tombstone
// writes through what it has just handed off itself, how Open makes the
// first file, and how every call does its own I/O after a failure.
package flash

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// stageBytes is the size of each of the two staging buffers. A record
// that does not fit one is written directly (appendRecord).
const stageBytes = 512 << 10

// chunk is a run of staged bytes on its way to a segment file.
type chunk struct {
	seg  *segment
	off  uint64
	data []byte
}

// stager is the staging area and the sealer's inbox, guarded by Store.mu.
type stager struct {
	// stage holds bytes [size-len(stage), size) of the active segment.
	stage []byte
	// spare is the other buffer; nil while it is the chunk in flight.
	spare []byte

	// The I/O owed to the disk, in the order ioStep runs it; the fourth
	// kind is an active segment whose f is nil.
	flight   chunk      // staged bytes to write; flight.seg is nil when none
	unsynced *segment   // sealed segment awaiting its sync
	retired  []*segment // reclaimed segments awaiting close and unlink, oldest first

	// busy is set while the sealer runs a step with the mutex released.
	busy bool
	// ioErr is the sticky I/O failure, set by failLocked. While it is set
	// the sealer is parked and every call runs its I/O inline. untold says
	// it arose on the sealer and no caller has been handed an error since.
	ioErr  error
	untold bool

	wake       sync.Cond // the sealer waits here for work
	idle       sync.Cond // the foreground waits here for the sealer
	sealerDone chan struct{}
}

// sealer is the store's background goroutine: Open starts it, Close stops
// it and waits for it.
func (s *Store) sealer() {
	defer close(s.sealerDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if s.ioErr == nil {
			ran, err := s.ioStep(true)
			if err != nil {
				s.failLocked(err, true)
			}
			if ran {
				s.idle.Broadcast()
				continue
			}
		} else {
			s.idle.Broadcast() // nobody is to wait for a parked sealer
		}
		s.wake.Wait()
	}
}

// failLocked makes err the sticky failure and wakes everyone who waits for
// the sealer: it is parked from here on, and they do their own I/O.
func (s *Store) failLocked(err error, untold bool) {
	s.ioErr, s.untold = err, untold
	s.idle.Broadcast()
}

func (s *Store) pendingLocked() bool {
	return s.flight.seg != nil || s.unsynced != nil || len(s.retired) > 0 || s.active().f == nil
}

// ioStep runs the next piece of I/O the store owes the disk and reports
// whether there was one it could run. The sealer passes offLock, which
// releases the mutex around the system call; the foreground keeps it.
func (s *Store) ioStep(offLock bool) (ran bool, err error) {
	switch {
	case s.flight.seg != nil && s.flight.seg.f != nil:
		c := s.flight
		s.unlockIf(offLock)
		_, err = c.seg.f.WriteAt(c.data, int64(c.off))
		s.lockIf(offLock)
		s.flight, s.spare = chunk{}, c.data[:0]
		if err != nil {
			s.discardLocked(c)
			err = fmt.Errorf("flash: append: %w", err)
		}
	case s.active().f == nil:
		seg := s.active()
		s.unlockIf(offLock)
		f, cerr := s.opts.FS.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		s.lockIf(offLock)
		if err = cerr; err != nil {
			err = fmt.Errorf("flash: %w", err)
		} else {
			seg.f = f
		}
	case len(s.retired) > 0 && s.retired[0].readers.Load() == 0:
		// Oldest first, and the next one only after this one is gone: a
		// tombstone must never be unlinked before the record it hides.
		seg := s.retired[0]
		f := seg.f
		seg.f = nil
		s.unlockIf(offLock)
		if f != nil {
			f.Close()
		}
		err = s.opts.FS.Remove(seg.path)
		s.lockIf(offLock)
		if err != nil {
			err = fmt.Errorf("flash: reclaim remove: %w", err)
		} else {
			n := copy(s.retired, s.retired[1:])
			s.retired[n] = nil
			s.retired = s.retired[:n]
		}
	case s.unsynced != nil:
		// Sync-on-seal. It comes last so that nothing sits out a sync: from
		// here on the foreground may write to the new active segment, and a
		// Delete that waits for a reclaimed segment's unlink has had it.
		seg := s.unsynced
		s.unlockIf(offLock)
		err = seg.f.Sync()
		s.lockIf(offLock)
		if err != nil {
			err = fmt.Errorf("flash: seal %s: %w", seg.path, err)
		} else {
			s.unsynced = nil
		}
	default:
		return false, nil
	}
	return true, err
}

func (s *Store) unlockIf(offLock bool) {
	if offLock {
		s.busy = true
		s.mu.Unlock()
	}
}

func (s *Store) lockIf(offLock bool) {
	if offLock {
		s.mu.Lock()
		s.busy = false
	}
}

// waitIdleLocked returns once the sealer has nothing left to do, or has
// given up (ioErr), or the store is closed. It releases the mutex while it
// waits, so the caller must look at the store afresh afterwards.
func (s *Store) waitIdleLocked() {
	for !s.closed && (s.busy || (s.ioErr == nil && s.pendingLocked())) {
		s.awaitSealerLocked()
	}
}

// awaitSealerLocked sleeps until the sealer has finished a step, nudging
// it first in case it has not been told of the work yet (Reset).
func (s *Store) awaitSealerLocked() {
	if !s.busy {
		s.wake.Signal()
	}
	s.idle.Wait()
}

// waitWrittenLocked returns once the sealer has written every byte handed
// to it and the active segment has its file. It sits out a sync or an
// unlink only if the chunk was handed over while the sealer was in one.
// In the sticky-error state it returns once the sealer has stopped.
func (s *Store) waitWrittenLocked() {
	for !s.closed {
		if s.ioErr != nil {
			if !s.busy {
				return
			}
		} else if s.flight.seg == nil && s.active().f != nil {
			return
		}
		s.awaitSealerLocked()
	}
}

// handoffLocked makes the staged bytes the chunk in flight. There must be
// none already: that is what guarantees the spare buffer is back.
func (s *Store) handoffLocked() {
	if len(s.stage) == 0 {
		return
	}
	a := s.active()
	s.flight = chunk{seg: a, off: a.size - uint64(len(s.stage)), data: s.stage}
	s.stage, s.spare = s.spare, nil
}

// rollLocked seals the active segment and starts the next one, in memory:
// the staged tail, the sync-on-seal and the new file are left to ioStep.
// Nothing may be owed to the disk from the roll before.
func (s *Store) rollLocked() {
	if len(s.segs) > 0 {
		s.handoffLocked()
		s.unsynced = s.active()
	}
	seq := s.nextSeq
	s.nextSeq++
	s.segs = append(s.segs, &segment{seq: seq, path: segPath(s.opts.Dir, seq)})
}

// flushLocked writes everything staged through to the file, inline: one
// write, once the sealer has written whatever it holds in front of it (so
// it may release the mutex first; from there to its return it does not).
// In the sticky-error state the sealer is parked, and flushLocked runs
// everything else the store owes the disk as well; that state ends when a
// flush that had bytes to write succeeds — nothing less proves the disk
// takes writes again. If it began on the sealer and no caller has been
// handed an error since, this one is: records were lost, and somebody has
// to hear of it.
func (s *Store) flushLocked() error {
	s.waitWrittenLocked()
	if s.closed {
		return ErrClosed
	}
	was, untold := s.ioErr, s.untold
	wrote := false
	for {
		if s.flight.seg == nil {
			s.handoffLocked()
		}
		writing := s.flight.seg != nil
		if !writing && was == nil {
			break // healthy, and what was staged is written; the rest is the sealer's
		}
		ran, err := s.ioStep(false)
		if err != nil {
			s.failLocked(err, false)
			return err
		}
		if !ran {
			break
		}
		wrote = wrote || (writing && s.flight.seg == nil)
	}
	s.untold = false
	if wrote && was != nil {
		s.ioErr = nil
		s.wake.Signal() // what is still owed (a retired segment with a reader) is the sealer's again
	}
	if untold {
		return was
	}
	return nil
}

// drainLocked is the barrier: the sealer finishes everything it holds and
// what is staged is written through.
func (s *Store) drainLocked() error {
	s.waitIdleLocked()
	return s.flushLocked()
}

// discardLocked forgets a chunk whose write failed, and with it whatever
// was staged behind it in the same segment (there would be a hole in
// front of it): the records leave the index and the segment ends where the
// chunk began. A cache may forget; it must not index what it cannot read.
func (s *Store) discardLocked(c chunk) {
	lost := uint64(len(c.data))
	s.unindexLocked(c.seg.seq, c.off, c.data)
	if c.seg == s.active() {
		s.unindexLocked(c.seg.seq, c.off+lost, s.stage)
		lost += uint64(len(s.stage))
		s.stage = s.stage[:0]
	}
	c.seg.size = c.off
	s.diskUsed -= lost
}

// unindexLocked drops the index entries that point into data, staged
// records that start at offset base of segment seq.
func (s *Store) unindexLocked(seq, base uint64, data []byte) {
	for off := 0; off+headerSize <= len(data); {
		klen := int(binary.LittleEndian.Uint16(data[off+5:]))
		vlen := int(binary.LittleEndian.Uint32(data[off+7:]))
		h := keyHash(data[off+headerSize:][:klen])
		if r := s.index.get(h); r != nil && r.seg == seq && r.off == base+uint64(off) {
			s.dropIndex(h)
		}
		off += headerSize + klen + vlen
	}
}

// stagedLocked returns the bytes of record r if they are still in memory
// (staged, or in flight to the file), nil if they must be read back.
func (s *Store) stagedLocked(r rec) []byte {
	if c := s.flight; c.seg != nil && c.seg.seq == r.seg && r.off >= c.off && r.off < c.off+uint64(len(c.data)) {
		return c.data[r.off-c.off:][:r.size()]
	}
	if s.closed {
		return nil
	}
	if a := s.active(); a.seq == r.seg {
		if base := a.size - uint64(len(s.stage)); r.off >= base {
			return s.stage[r.off-base:][:r.size()]
		}
	}
	return nil
}

// release ends a Lookup's hold on seg. The last reader of a retired
// segment wakes the sealer, which was waiting for it.
func (s *Store) release(seg *segment) {
	if seg.readers.Add(-1) == 0 && seg.retired.Load() {
		s.mu.Lock()
		s.wake.Signal()
		s.mu.Unlock()
	}
}
