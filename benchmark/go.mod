// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the path keeps the specrpc/ prefix
// so that it may import the product's internal packages.
module specrpc/benchmark

go 1.22

require specrpc v0.0.0

replace specrpc => ../
