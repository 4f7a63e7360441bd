module smartdrill/bench

go 1.24

require smartdrill v0.0.0

replace smartdrill => ../
