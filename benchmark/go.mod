module oms/benchmark

go 1.22

require oms v0.0.0

replace oms => ../
