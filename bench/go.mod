module saql/bench

go 1.24

require saql v0.0.0

replace saql => ../
