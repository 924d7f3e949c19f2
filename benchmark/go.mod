// The benchmark is its own module so the root module's build and tests
// never depend on it; the replace directive binds it to the checkout it
// sits in, and the repro/ path prefix is what lets it import repro/internal.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
