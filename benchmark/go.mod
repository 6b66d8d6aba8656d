// The benchmark is its own module so that it builds from this directory
// alone (BENCHMARK.json names no file outside it). Its import path sits
// under repro/, which is what lets it reach repro/internal/...; the
// replace points at the repository root one level up.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
