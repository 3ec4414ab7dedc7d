module offloadnn/bench

go 1.22

require offloadnn v0.0.0

replace offloadnn => ../
