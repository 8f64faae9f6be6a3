// The benchmark is a module of its own so it builds from bench/ with no
// change to the repository's build files; the module path sits under
// uqsim/ so it may import uqsim/internal/..., and the replace points at
// the checkout it lives in.
module uqsim/bench

go 1.22

require uqsim v0.0.0

replace uqsim => ../
