// The benchmark is a module of its own so that the product module builds and
// tests without it; the path prefix cyclojoin/ keeps cyclojoin/internal/...
// importable.
module cyclojoin/bench

go 1.22

require cyclojoin v0.0.0

replace cyclojoin => ../
