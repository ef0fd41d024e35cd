module github.com/argonne-first/first/benchmark

go 1.22

require github.com/argonne-first/first v0.0.0

replace github.com/argonne-first/first => ../
