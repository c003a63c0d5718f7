module aide/benchmark

go 1.22

require aide v0.0.0

replace aide => ../
