package core

import "s3fifo/internal/policy"

// Factories returns policy factories for S3-FIFO, its adaptive variant,
// and the §6.3 queue-type ablations, keyed by canonical name. The
// simulator merges these with policy.Names() baselines.
func Factories() map[string]policy.Factory {
	return map[string]policy.Factory{
		"s3fifo": func(c uint64) policy.Policy {
			return NewS3FIFO(c, Options{})
		},
		"s3fifo-d": func(c uint64) policy.Policy {
			return NewS3FIFOD(c, Options{})
		},
		"s3fifo-lru-s": func(c uint64) policy.Policy {
			return NewS3FIFO(c, Options{SmallKind: LRUQueue})
		},
		"s3fifo-lru-m": func(c uint64) policy.Policy {
			return NewS3FIFO(c, Options{MainKind: LRUQueue})
		},
		"s3fifo-lru-both": func(c uint64) policy.Policy {
			return NewS3FIFO(c, Options{SmallKind: LRUQueue, MainKind: LRUQueue})
		},
		"s3fifo-hit-promote": func(c uint64) policy.Policy {
			return NewS3FIFO(c, Options{PromoteOnHit: true})
		},
		"s3fifo-sieve-m": func(c uint64) policy.Policy {
			return NewS3FIFO(c, Options{MainKind: SieveQueue})
		},
	}
}

var (
	// Interface conformance checks.
	_ policy.Policy          = (*S3FIFO)(nil)
	_ policy.DemotionTracker = (*S3FIFO)(nil)
	_ policy.Policy          = (*S3FIFOD)(nil)
)
