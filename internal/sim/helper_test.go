package sim

import (
	"s3fifo/internal/core"
	"s3fifo/internal/policy"
)

// corePolicyWithRatio builds an S3-FIFO with a custom small-queue ratio
// for the demotion-speed tests.
func corePolicyWithRatio(capacity uint64, ratio float64) policy.Policy {
	return core.NewS3FIFO(capacity, core.Options{SmallRatio: ratio})
}
