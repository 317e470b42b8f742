module umzi/benchmarks

go 1.22

require umzi v0.0.0

replace umzi => ../
