module github.com/newton-net/newton/benchmark

go 1.22

require github.com/newton-net/newton v0.0.0

replace github.com/newton-net/newton => ../
