module xks/bench

go 1.24

require xks v0.0.0

replace xks => ../
