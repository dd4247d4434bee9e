package cache

import (
	"s3fifo/internal/flash"
)

// flashStoreTier adapts the log-structured segment store (internal/flash)
// to the Tier interface — the production second tier from the paper's
// §5.4 flash study.
type flashStoreTier struct {
	store *flash.Store
}

func newFlashStoreTier(cfg Config) (Tier, error) {
	store, err := flash.Open(flash.Options{
		Dir:          cfg.FlashDir,
		MaxBytes:     cfg.FlashBytes,
		SegmentBytes: cfg.FlashSegmentBytes,
		FS:           cfg.FlashFS,
	})
	if err != nil {
		return nil, err
	}
	return &flashStoreTier{store: store}, nil
}

func (t *flashStoreTier) Kind() string { return "flash" }

func (t *flashStoreTier) Get(key string) ([]byte, int64, bool, error) {
	return t.store.Lookup(key)
}

func (t *flashStoreTier) Contains(key string) bool { return t.store.Contains(key) }

func (t *flashStoreTier) Put(key string, value []byte, expiresAt int64) error {
	if len(key) >= flash.MaxKeyLen || len(value) > flash.MaxValueLen {
		return ErrEntryTooLarge
	}
	return t.store.Put(key, value, expiresAt)
}

func (t *flashStoreTier) Delete(key string) (bool, error) { return t.store.Delete(key) }
func (t *flashStoreTier) Sync() error                     { return t.store.Sync() }
func (t *flashStoreTier) Reset() error                    { return t.store.Reset() }
func (t *flashStoreTier) Close() error                    { return t.store.Close() }

func (t *flashStoreTier) Stats() TierStats {
	st := t.store.Stats()
	return TierStats{
		Hits:         st.Hits,
		Misses:       st.Misses,
		Entries:      uint64(t.store.Len()),
		Segments:     uint64(t.store.Segments()),
		BytesWritten: st.BytesWritten,
		GCBytes:      st.GCBytes,
	}
}
