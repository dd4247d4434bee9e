// Package s3fifo is a from-scratch Go reproduction of "FIFO queues are
// all you need for cache eviction" (Yang, Zhang, Qiu, Yue & Rashmi,
// SOSP '23).
//
// The public cache library lives in s3fifo/cache. The paper's evaluation
// — the S3-FIFO algorithm and its adaptive variant, 20 baseline eviction
// algorithms, the trace simulator, the synthetic corpus standing in for
// the paper's 6,594 production traces, the concurrent throughput harness,
// and the flash-admission simulator — lives under internal/ and is driven
// by the commands in cmd/ and the benchmarks in bench_test.go. DESIGN.md
// maps every figure and table of the paper to the code that regenerates
// it; EXPERIMENTS.md records paper-vs-measured results.
package s3fifo
