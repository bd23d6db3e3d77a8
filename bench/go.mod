// The benchmark is a module of its own so that the repo's build does
// not depend on it; the replace lets it import the parent's internal
// packages (its import path sits under directload/).
module directload/bench

go 1.22

require directload v0.0.0

replace directload => ../
