module s3fifo/bench

go 1.22

require s3fifo v0.0.0

replace s3fifo => ../
